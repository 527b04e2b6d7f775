"""The paper's square well solved with math alone, row by row.

The closed-form phase theta = 2Lq + atan2(N, D) of matching's
_square_well_phase_slope crosses pi/2 + n pi at the square well's levels.
square_well_rows solves the crossings of a few wells, the rows of a small
sweep, with the iterates of the batched kernel, spectrum._levels_by_row:
the bands, level counts and refusals of its _level_ranges, the brackets
of the first call narrowed as its _narrowed narrows them, the stretched
Newton steps, the bisection after NEWTON_CALLS calls, and its blur and
tie refusals, counted over all rows.  Where a division meets a zero it
takes numpy's inf or NaN, so a level sees the same branch as in the
batch.  Its floats are Python's and its atan2 is libm's, so it gives the
batched kernel's roots bit for bit wherever numpy's float64 kernels are
libm's (without AVX-512), and within a few spacings of the band's edge
where they are not.  square_well_levels is its one-row case.

It takes at most SCALAR_SWEEP_ROWS rows, decided on their count alone,
each of at most SCALAR_LEVELS levels, and returns None for more: the
batch is faster from about 60 levels on in one well (measured on a 2-core
Xeon).  spectrum.find_roots sends a square well here and sweep_k and
sweep_v0 a sweep; `diracwell spectrum` calls this module itself and
`sweep-k` and `sweep-v0` call it through sweeps, so that they load no
numpy unless the batch solves the well or sweep.  DEFAULT_ROOT_TOL,
NEWTON_CALLS, spectrum_to_csv and the kernel's refusal texts are defined
here and shared with spectrum; the well's own refusals share their texts
with matching._check_well.
"""

from __future__ import annotations

import bisect
import math

from .errors import ConfigError, UnsupportedRegime
from .landau import MAX_GRID_POINTS

__all__: list[str] = []

DEFAULT_ROOT_TOL = 1e-10
NEWTON_CALLS = 40  # phase calls after which a level still open is bisected
SCALAR_LEVELS = 32  # the most levels of one row solved here rather than in a batch
SCALAR_SWEEP_ROWS = 64  # the most rows solved here rather than in a batch

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


def _band(k: float, v0: float) -> tuple[float, float]:
    """matching._band of the square well (0, -v0, 0): (lo, hi)."""
    kk = abs(k)
    lo = 0.0 - kk if -v0 > 0.0 else max(0.0 - kk, -v0 + kk)
    hi = 0.0 + kk if -v0 < 0.0 else min(0.0 + kk, -v0 - kk)
    return lo, hi


def _level_ranges(ks: list[float], v0s: list[float], two_l: float) -> list:
    """Per row, (sign, u_lo, u_hi, theta there, first n, level count,
    spacing of the band's larger end), or None for a row whose band holds
    fewer than two doubles or no level: the bands, counts and refusals of
    spectrum._level_ranges, in its order over all rows."""
    bands = []  # (lo, hi, inner_lo, inner_hi, theta at inner_lo and inner_hi or None)
    for k, v0 in zip(ks, v0s):
        lo, hi = _band(k, v0)
        inner_lo, inner_hi = math.nextafter(lo, hi), math.nextafter(hi, lo)
        theta = None
        if inner_lo < inner_hi:
            theta = _phase(k, inner_lo, v0, two_l)[0], _phase(k, inner_hi, v0, two_l)[0]
            if not (math.isfinite(theta[0]) and math.isfinite(theta[1])):
                raise UnsupportedRegime(UNFINITE_PHASE)
        bands.append((lo, hi, inner_lo, inner_hi, theta))
    reaches = [max(abs(theta[0]), abs(theta[1])) for *_, theta in bands if theta is not None]
    if not all(math.ulp(reach) < math.pi for reach in reaches):
        raise UnsupportedRegime(PHASE_REACH.format(max(reaches)))
    found, unresolved, total = [], 0, 0
    for k, v0, (lo, hi, inner_lo, inner_hi, theta) in zip(ks, v0s, bands):
        count = 0
        if theta is not None:
            (th_lo, th_hi), sign, u_lo, u_hi = theta, 1.0, inner_lo, inner_hi
            if th_hi < th_lo:
                sign, u_lo, u_hi, th_lo, th_hi = -1.0, -inner_hi, -inner_lo, th_hi, th_lo
            first = math.floor((th_lo - 0.5 * math.pi) / math.pi) + 1
            count = max(math.ceil((th_hi - 0.5 * math.pi) / math.pi) - first, 0)
        unresolved += k != 0.0 and v0 != 0.0 and not count
        total += count
        found.append((sign, u_lo, u_hi, th_lo, th_hi, first, count, math.ulp(max(abs(lo), abs(hi))))
                     if count else None)
    if unresolved:
        raise UnsupportedRegime(UNRESOLVED_BINDING.format(unresolved))
    if total > MAX_GRID_POINTS:
        raise UnsupportedRegime(TOO_MANY_LEVELS.format(float(total)))
    return found


def _row_levels(k, v0, two_l, found, blurs) -> tuple[list[int], list[float]]:
    """(n, root) of one row's levels in the order of n, from its
    _level_ranges entry; each level's blur past DEFAULT_ROOT_TOL goes to
    blurs."""
    sign, u_lo, u_hi, th_lo, th_hi, first, count, width = found

    def phase(x):  # (theta, slope) in u = sign * eps
        if sign > 0.0:
            return _phase(k, x, v0, two_l)
        theta, slope = _phase(k, -x, v0, two_l)
        return theta, -slope

    ns = range(first, first + count)
    targets = [0.5 * math.pi + n * math.pi for n in ns]
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
    roots = []
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
    if sign < 0.0:
        ns = [-n - 1 for n in ns]
    return list(ns), roots


def square_well_rows(ks, v0s, half_width: float):
    """Every level of the square wells (ks[r], v0s[r], half_width), as
    (row, n, root) lists sorted by row and root, as
    spectrum._levels_by_row gives them (n is -n - 1 on a mirrored row);
    or None for more than SCALAR_SWEEP_ROWS rows, decided on their count
    alone, or for a row of more than SCALAR_LEVELS levels, which the
    batched kernel solves.

    The rows' k, v0 and half_width must be finite and the width positive
    (see _check_well).  UnsupportedRegime as spectrum._levels_by_row
    refuses, in its order and with its texts, the counts and largest
    values summed and taken over all rows.  Each level starts from the
    interpolation of theta across its row's band; its first call's
    bracket is narrowed onto the nearest first-call points of its row
    with theta at or below and above its target, found by the binary
    search numpy's searchsorted makes (each from the last one's answer);
    then each level steps on alone until its bracket is one spacing of
    its band's larger end wide (see spectrum._levels_by_row).
    """
    if len(ks) > SCALAR_SWEEP_ROWS:
        return None
    ks, v0s, two_l = [float(k) for k in ks], [float(v0) for v0 in v0s], 2.0 * half_width
    ranges = _level_ranges(ks, v0s, two_l)
    if any(found is not None and found[6] > SCALAR_LEVELS for found in ranges):
        return None
    rows, ns, roots, blurs = [], [], [], []
    for row, (k, v0, found) in enumerate(zip(ks, v0s, ranges)):
        if found is None:
            continue
        row_ns, row_roots = _row_levels(k, v0, two_l, found, blurs)
        order = sorted(range(len(row_roots)), key=row_roots.__getitem__)  # stable, as lexsort
        rows += [row] * len(order)
        ns += [row_ns[i] for i in order]
        roots += [row_roots[i] for i in order]
    if blurs:  # the largest, or NaN if one is, as numpy's max
        worst = math.nan if any(blur != blur for blur in blurs) else max(blurs)
        raise UnsupportedRegime(PHASE_BLUR.format(len(blurs), worst))
    tied = sum(row == upper_row and not upper > lower
               for row, upper_row, lower, upper in zip(rows, rows[1:], roots, roots[1:]))
    if tied:
        raise UnsupportedRegime(TIED_LEVELS.format(tied))
    return rows, ns, roots


def square_well_levels(k: float, v0: float, half_width: float) -> list[float] | None:
    """The sorted levels of the square well (k, v0, half_width): the one
    row of square_well_rows, or None when it holds more than SCALAR_LEVELS
    of them, which the batched kernel solves.

    ConfigError for a k or v0 that is not finite or a width that is not
    finite and positive; UnsupportedRegime as spectrum.find_roots refuses,
    with the same texts.
    """
    _check_well(math.isfinite(k), math.isfinite(v0), half_width)
    found = square_well_rows([k], [v0], half_width)
    return None if found is None else found[2]


def spectrum_to_csv(roots: list[float]) -> str:
    lines = ["n,epsilon"]
    lines += [f"{i},{r!r}" for i, r in enumerate(roots)]
    return "\n".join(lines) + "\n"
