"""The paper's square well solved with math alone, one well at a time.

The closed-form phase theta = 2Lq + atan2(N, D) of matching's
_square_well_phase_slope crosses pi/2 + n pi at the square well's levels.
square_well_levels solves one well's crossings with the iterates of the
batched kernel, spectrum._levels_by_row, on one row: the band, the level
count and the refusals of its _level_ranges, the brackets of the first
call narrowed as its _narrowed narrows them, the stretched Newton steps,
the bisection after NEWTON_CALLS calls, and its blur and tie refusals.
Where a division meets a zero it takes numpy's inf or NaN, so a level
sees the same branch as in the batch.  Its floats are Python's and its
atan2 is libm's, so it gives the batched kernel's roots bit for bit
wherever numpy's float64 kernels are libm's (without AVX-512), and
within a few spacings of the band's edge where they are not.

spectrum.find_roots sends a square well of at most SCALAR_LEVELS levels
here and a deeper one to the batched kernel, which is faster from about
60 levels on (measured on a 2-core Xeon); `diracwell spectrum` calls this
module itself, so that it loads no numpy unless the well is deeper.
DEFAULT_ROOT_TOL, NEWTON_CALLS, spectrum_to_csv and the kernel's refusal
texts are defined here and shared with spectrum; the well's own refusals
share their texts with matching._check_well.
"""

from __future__ import annotations

import bisect
import math

from .errors import ConfigError, UnsupportedRegime
from .landau import MAX_GRID_POINTS

__all__: list[str] = []

DEFAULT_ROOT_TOL = 1e-10
NEWTON_CALLS = 40  # phase calls after which a level still open is bisected
SCALAR_LEVELS = 32  # the most levels find_roots solves here rather than in a batch

# the refusals of both kernels, formatted with numbers
UNFINITE_PHASE = "phase is not finite at a band end: levels are not distinct doubles"
PHASE_REACH = "phase reaches {:.3g}: levels are not distinct doubles"
UNRESOLVED_BINDING = ("{} well(s) bind a level within one double of the band edge: "
                      "too weakly bound to resolve")
TOO_MANY_LEVELS = "{:.0f} levels in one solve, more than the " + f"{MAX_GRID_POINTS} it takes"
PHASE_BLUR = "phase rounding moves {} level(s) by up to {:.3g}, more than " + f"{DEFAULT_ROOT_TOL:g}"
TIED_LEVELS = "{} level(s) round to the double of the level below: levels are not distinct doubles"


def _check_well(k_finite: bool, v0_finite: bool, half_width) -> None:
    """ConfigError unless k and v0 are finite and half_width is finite and
    positive (core.square_well's rule and text)."""
    if not k_finite:
        raise ConfigError("k must be finite")
    if not v0_finite:
        raise ConfigError("v0 must be finite")
    if not (half_width > 0 and math.isfinite(half_width)):
        raise ConfigError(f"half_width must be finite and positive, got {half_width}")


def _div(a: float, b: float) -> float:
    """a / b as numpy divides doubles: +-inf or NaN where b is zero."""
    if b:
        return a / b
    if a != a or not a:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _phase(k: float, eps: float, v0: float, two_l: float) -> tuple[float, float]:
    """(theta, dtheta/deps) of matching._square_well_phase_slope at one
    energy, two_l = 2L: the same operations in the same order."""
    kk, e = k * k, eps + v0
    p, q = math.sqrt(max(kk - eps * eps, 0.0)), math.sqrt(max(e * e - kk, 0.0))
    n, d = eps * e - kk, p * q
    theta = two_l * q + math.atan2(n, d)
    dd = _div(p * p * e - eps * q * q, d)
    slope = _div(two_l * e, q) + _div((2.0 * eps + v0) * d - n * dd, n * n + d * d)
    return theta, slope


def _level_range(k: float, v0: float, two_l: float):
    """(sign, u_lo, u_hi, theta there, first n, level count, spacing of the
    band's larger end) of one well, or None for a band of fewer than two
    doubles; the band and refusals of spectrum._level_ranges on one row."""
    kk = abs(k)
    lo = 0.0 - kk if -v0 > 0.0 else max(0.0 - kk, -v0 + kk)  # matching._band of (0, -v0, 0)
    hi = 0.0 + kk if -v0 < 0.0 else min(0.0 + kk, -v0 - kk)
    binds = k != 0.0 and v0 != 0.0
    inner_lo, inner_hi = math.nextafter(lo, hi), math.nextafter(hi, lo)
    count = 0
    if inner_lo < inner_hi:
        th_lo, th_hi = _phase(k, inner_lo, v0, two_l)[0], _phase(k, inner_hi, v0, two_l)[0]
        if not (math.isfinite(th_lo) and math.isfinite(th_hi)):
            raise UnsupportedRegime(UNFINITE_PHASE)
        reach = max(abs(th_lo), abs(th_hi))
        if not math.ulp(reach) < math.pi:
            raise UnsupportedRegime(PHASE_REACH.format(reach))
        sign, u_lo, u_hi = 1.0, inner_lo, inner_hi
        if th_hi < th_lo:
            sign, u_lo, u_hi, th_lo, th_hi = -1.0, -inner_hi, -inner_lo, th_hi, th_lo
        first = math.floor((th_lo - 0.5 * math.pi) / math.pi) + 1
        count = max(math.ceil((th_hi - 0.5 * math.pi) / math.pi) - first, 0)
    if binds and not count:
        raise UnsupportedRegime(UNRESOLVED_BINDING.format(1))
    if count > MAX_GRID_POINTS:
        raise UnsupportedRegime(TOO_MANY_LEVELS.format(float(count)))
    if not count:
        return None
    return sign, u_lo, u_hi, th_lo, th_hi, first, count, math.ulp(max(abs(lo), abs(hi)))


def square_well_levels(k: float, v0: float, half_width: float) -> list[float] | None:
    """The sorted levels of the square well (k, v0, half_width), or None
    when it holds more than SCALAR_LEVELS of them, which the batched
    kernel solves.

    ConfigError for a k or v0 that is not finite or a width that is not
    finite and positive; UnsupportedRegime as spectrum.find_roots refuses,
    with the same texts.  Each level starts from the interpolation of
    theta across the band; its first call's bracket is narrowed onto the
    nearest first-call points with theta at or below and above its target,
    found by the binary search numpy's searchsorted makes (each from the
    last one's answer); then each level steps on alone until its bracket
    is one spacing of the band's larger end wide (see
    spectrum._levels_by_row).
    """
    _check_well(math.isfinite(k), math.isfinite(v0), half_width)
    two_l = 2.0 * half_width
    found = _level_range(k, v0, two_l)
    if found is None:
        return []
    sign, u_lo, u_hi, th_lo, th_hi, first, count, width = found
    if count > SCALAR_LEVELS:
        return None

    def phase(x):  # (theta, slope) in u = sign * eps
        if sign > 0.0:
            return _phase(k, x, v0, two_l)
        theta, slope = _phase(k, -x, v0, two_l)
        return theta, -slope

    targets = [0.5 * math.pi + n * math.pi for n in range(first, first + count)]
    # the first call: every level at once, as its brackets narrow onto each other's points
    xs, thetas, levels = [], [], []
    for target in targets:
        x = u_lo + (target - th_lo) / (th_hi - th_lo) * (u_hi - u_lo)
        if not u_lo < x < u_hi:
            x = 0.5 * (u_lo + u_hi)
        theta, slope = phase(x)
        f = theta - target
        xs.append(x)
        thetas.append(theta)
        levels.append([x if f <= 0.0 else u_lo, x if f >= 0.0 else u_hi, x, f, slope])
    below = 0
    for target, level in zip(targets, levels):
        below = bisect.bisect_right(thetas, target, below)  # theta is finite inside the band
        if below > 0:
            level[0] = max(level[0], xs[below - 1])
        if below < count:
            level[1] = min(level[1], xs[below])
    roots, blurs = [], []
    for target, (a, b, x, f, slope) in zip(targets, levels):
        reach, calls = width, 1
        while not b - a <= width:
            step = _div(-f, slope)
            if abs(step) < reach:
                x, reach = x + math.copysign(reach, step), 2.0 * reach
            else:
                x = x + step
            if calls >= NEWTON_CALLS or not a < x < b:
                x = 0.5 * (a + b)
            theta, slope = phase(x)
            calls += 1
            f = theta - target
            if f <= 0.0:
                a = x
            if f >= 0.0:
                b = x
        blur = _div(math.ulp(abs(target)), slope)
        if not blur <= DEFAULT_ROOT_TOL:  # NaN for a slope that is not finite
            blurs.append(blur)
        roots.append(sign * (0.5 * (a + b)))
    if blurs:  # the largest, or NaN if one is, as numpy's max
        worst = math.nan if any(blur != blur for blur in blurs) else max(blurs)
        raise UnsupportedRegime(PHASE_BLUR.format(len(blurs), worst))
    roots.sort()
    tied = sum(not upper > lower for lower, upper in zip(roots, roots[1:]))
    if tied:
        raise UnsupportedRegime(TIED_LEVELS.format(tied))
    return roots


def spectrum_to_csv(roots: list[float]) -> str:
    lines = ["n,epsilon"]
    lines += [f"{i},{r!r}" for i, r in enumerate(roots)]
    return "\n".join(lines) + "\n"
