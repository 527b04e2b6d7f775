"""Bound-state matching for piecewise-constant electrostatic profiles.

For a purely electrostatic profile the rotated components
psi_t1 = (psi_1 - i psi_2)/2, psi_t2 = (psi_1 + i psi_2)/2 decouple into
scalar second-order equations.  On each region of constant v the first
component satisfies psi'' = m psi with m = k^2 - (eps - v)^2, so the
solution is a two-exponential combination; at a step of size J the value is
continuous while the derivative jumps by i J psi, the imprint of the
delta-function derivative of the profile.

A secular function is its phase: a theta that is strictly monotone across
its band and crosses pi/2 + n pi at the bound states.  It increases, but
for the closed-form phase of a barrier (v0 < 0), which decreases and which
the root finder solves in u = -eps.  Two are built from
this structure: the phase of the closed-form determinant of the symmetric
square well, and a transfer phase for arbitrary piecewise profiles, the
Prufer angle of the solution that decays to the left measured against the
right exterior's decaying direction.  Its value cos(theta) is kept only
for the benchmark's tracer (see SecularFunction).  The transfer carry,
_carry, is the package's one walk across the steps.  The phase and its
slope over an energy array are read off one walk, which hands back each
inner region's entry and exit pairs with its m, q w and rescale; the
slope's integral is summed in the walk's own running scale.
At a root the walk gives the (psi, psi') from which states.py reads each
region's coefficients.  core loads with the transfer route alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce, wraps
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ConfigError, OutsideAdmissibleBand, UnsupportedRegime

if TYPE_CHECKING:
    from .core import FieldConfig, PiecewiseConstant

__all__ = [
    "SecularFunction",
    "secular_det_square_well",
    "square_well_secular",
    "general_secular",
    "square_well_config",
]


@dataclass(frozen=True)
class SecularFunction:
    """A secular function is its phase: a theta that is strictly monotone on
    the band (lo, hi) and crosses pi/2 + n pi at the bound states.  It
    increases, but for the closed-form phase of a barrier (v0 < 0), which
    decreases and which find_roots solves in u = -eps.

    f is cos(theta), which nothing in the package reads.  It stays only
    because the benchmark's tracer counts find_roots' evaluations by
    replacing it, and goes once the tracer reads the phase (ROADMAP item 5,
    after item 1).  phase silences the floating-point warnings of a slope
    that is infinite or NaN at a band edge; the phase of _from_phase keeps
    its kernel, without that np.errstate guard, as phase.__wrapped__, which
    find_roots calls inside its own guard."""

    f: Callable[[np.ndarray], np.ndarray]
    lo: float
    hi: float
    # (theta, dtheta/deps) of a monotone theta on (lo, hi) that crosses
    # pi/2 + n pi at the roots
    phase: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    # at least one root in exact arithmetic: a square well with k, v0 != 0,
    # or a profile that binds by the weak-coupling rule (see core._binds)
    binds: bool = False


def _from_phase(lo, hi, phase, binds: bool) -> SecularFunction:
    @wraps(phase)
    def guarded(eps):  # a float would take numpy's scalar path, whose last bits can differ from a batch's
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return phase(np.atleast_1d(eps))

    return SecularFunction(lambda eps: np.cos(guarded(eps)[0]), float(lo), float(hi), guarded, binds)


def _region_wavenumbers(k: float, eps: float, v0: float) -> tuple[float, float]:
    """Exterior decay rate p and interior wavenumber q for the square well.

    Raises OutsideAdmissibleBand naming the violated condition; the
    boundary cases p = 0 and q = 0 are rejected as well, and so is a NaN.
    Raises UnsupportedRegime where k^2 or (epsilon + v0)^2 overflows, as
    neither condition can then be decided.
    """
    kk, ee = k * k, (eps + v0) * (eps + v0)
    if math.isinf(kk) or math.isinf(ee):
        raise UnsupportedRegime(
            f"k^2 or (epsilon + v0)^2 overflows a double: eps={eps}, v0={v0}, k={k}"
        )
    p_sq = kk - eps * eps
    if not p_sq > 0.0:
        raise OutsideAdmissibleBand(
            f"decaying exterior needs |epsilon| < |k|: eps={eps}, k={k}"
        )
    q_sq = ee - kk
    if not q_sq > 0.0:
        raise OutsideAdmissibleBand(
            f"oscillatory interior needs |epsilon + v0| > |k|: eps={eps}, v0={v0}, k={k}"
        )
    return math.sqrt(p_sq), math.sqrt(q_sq)


def _square_well_phase_slope(k, epsilon, v0, half_width):
    """(theta, dtheta/deps) of the phase theta = 2Lq + atan2(N, D) with
    N = eps(eps+v0) - k^2 and D = pq: the secular value is
    hypot(D, N) cos(theta).  theta increases across a well's band and,
    unchanged bit for bit by (eps, v0) -> (-eps, -v0), decreases across a
    barrier's.

    dtheta/deps is 2L(eps+v0)/q + (N'D - ND')/(N^2 + D^2), where
    N' = 2 eps + v0 and D' = (p^2 (eps+v0) - eps q^2)/(pq).  Where p or q
    vanishes the slope is infinite or NaN, and numpy warns unless the
    caller holds an np.errstate guard (divide, invalid and over).
    """
    eps = np.asarray(epsilon, dtype=float)
    kk, e = k * k, eps + v0
    p, q = np.sqrt(np.maximum(kk - eps**2, 0.0)), np.sqrt(np.maximum(e**2 - kk, 0.0))
    n, d = eps * e - kk, p * q
    theta = 2.0 * half_width * q + np.arctan2(n, d)
    dd = (p * p * e - eps * q * q) / d
    slope = 2.0 * half_width * e / q + ((2.0 * eps + v0) * d - n * dd) / (n * n + d * d)
    return theta, slope


def _band(k, values):
    """Band (lo, hi) of a piecewise profile, elementwise in k and in its
    values: the window (max(vL, vR) - |k|, min(vL, vR) + |k|) where both
    exteriors decay, narrowed to where some inner region oscillates.  lo
    stays where an inner value exceeds max(vL, vR), as that region
    oscillates at the window's foot, and is raised to min(inner) + |k|
    otherwise; hi likewise with the roles swapped.  The narrowing is exact:
    with D the free Dirac operator of mass |k|, ||D psi|| >= |k| ||psi||
    while (H - eps) psi = 0 gives D psi = (eps - V) psi, so a level needs
    |eps - V| > |k| on some region.  Empty for a profile with no inner
    region, and for k = 0."""
    kk = np.abs(k)
    top, bottom = np.maximum(values[0], values[-1]), np.minimum(values[0], values[-1])
    lo, hi = top - kk, bottom + kk
    inner = values[1:-1]
    if not len(inner):
        return lo, lo
    peak, floor = reduce(np.maximum, inner), reduce(np.minimum, inner)
    return (np.where(peak > top, lo, np.maximum(lo, floor + kk)),
            np.where(floor < bottom, hi, np.minimum(hi, peak - kk)))


def secular_det_square_well(
    k: float, epsilon: float, v0: float, half_width: float = 1.0
) -> float:
    """Closed-form secular value p q cos(2Lq) - (eps(eps+v0) - k^2) sin(2Lq),
    the paper's matching determinant: its zeros inside the admissible band
    are exactly the square well's bound states.  Raises ConfigError for a
    non-finite input or a width that is not finite and positive,
    UnsupportedRegime where 2Lq overflows, and see _region_wavenumbers
    for the band's refusals.
    """
    _check_well(k, v0, half_width)
    if not math.isfinite(epsilon):
        raise ConfigError("epsilon must be finite")
    p, q = _region_wavenumbers(k, epsilon, v0)
    arg = 2.0 * half_width * q
    if not math.isfinite(arg):
        raise UnsupportedRegime(f"2Lq overflows at half_width={half_width}, q={q}")
    return p * q * math.cos(arg) - (epsilon * (epsilon + v0) - k * k) * math.sin(arg)


def _check_well(k, v0, half_width) -> None:
    """Raise ConfigError unless k and v0 (numbers or sweep grids) are finite
    and half_width is finite and positive."""
    if not np.all(np.isfinite(k)):
        raise ConfigError("k must be finite")
    if not np.all(np.isfinite(v0)):
        raise ConfigError("v0 must be finite")
    if not (half_width > 0 and math.isfinite(half_width)):  # core.square_well's rule and text
        raise ConfigError(f"half_width must be finite and positive, got {half_width}")


def square_well_secular(k: float, v0: float, half_width: float = 1.0) -> SecularFunction:
    """Secular function and phase of the square well over its band.

    Raises ConfigError for a non-finite k or v0 or a width that is not
    finite and positive."""
    _check_well(k, v0, half_width)
    lo, hi = _band(k, (0.0, -v0, 0.0))
    return _from_phase(lo, hi, lambda eps: _square_well_phase_slope(k, eps, v0, half_width),
                       bool(k != 0.0 and v0 != 0.0))


# ---------------------------------------------------------------------------
# transfer phase for arbitrary piecewise profiles
# ---------------------------------------------------------------------------


def _electrostatic_steps(config: FieldConfig) -> PiecewiseConstant:
    from .core import PiecewiseConstant  # core loads with the transfer route alone
    if not (config.magnetic is None or config.magnetic.is_zero()):
        raise ConfigError("matching handles purely electrostatic configurations")
    pot = config.electric
    if not isinstance(pot, PiecewiseConstant):
        raise ConfigError("matching needs a piecewise-constant profile")
    if not pot.breakpoints:
        raise ConfigError("profile has no steps, nothing to match")
    return pot


_SERIES_CUT = 1e-10
# below this |m w^2| a region's integral of |psi|^2 takes its series in
# m w^2, whose error is of order |m w^2|^3 / 100: the closed form's
# difference cancels to a relative error that grows as 1 / |m w^2|, 1e-3
# of the slope at |m w^2| = 1e-10
_AREA_SERIES_CUT = 1e-3


def _propagator_entries(m, w):
    """Entries (c, s/kappa, kappa*s) of the (psi, psi') propagator over width w
    for psi'' = m psi, elementwise in m; then sqrt(|m|) w (kappa w where
    m > 0, q w where m < 0) and the log of the factor divided out.

    The evanescent branch is rescaled by exp(-kappa w) (a positive factor,
    harmless for locating zeros) so wide regions cannot overflow; the log
    returned is kappa w there and 0 elsewhere, or None where no element is
    evanescent: then the entries are the cosine and sine alone, and nothing
    is rescaled.  Where |m w^2| < _SERIES_CUT an expansion in m w^2 keeps
    everything smooth; it is built only where some entry needs it.
    """
    m = np.asarray(m, dtype=float)
    z = m * w * w
    series = np.abs(z) < _SERIES_CUT
    expand = np.count_nonzero(series) > 0
    rate = np.sqrt(np.abs(m))
    rw = rate * w
    evan = m > 0.0
    if expand:
        rate = np.where(series, 1.0, rate)  # no 0/0: the series replaces these entries
    if np.count_nonzero(evan):
        half = 0.5 * np.exp(-2.0 * rw)
        c = np.where(evan, 0.5 + half, np.cos(rw))
        sdiv = np.where(evan, 0.5 - half, np.sin(rw)) / rate
        rescale = np.where(evan & ~series if expand else evan, rw, 0.0)
    else:
        c, sdiv, rescale = np.cos(rw), np.sin(rw) / rate, None
    if expand:
        c = np.where(series, 1.0 + z / 2.0 + z * z / 24.0, c)
        sdiv = np.where(series, w * (1.0 + z / 6.0 + z * z / 120.0), sdiv)
    return c, sdiv, m * sdiv, rw, rescale


def _carry(potential: PiecewiseConstant, k, eps, psi, dpsi, direction: int):
    """Carry (psi, psi') of psi'' = m psi, m = k^2 - (eps - v)^2, across the
    steps of a piecewise profile, elementwise in eps.

    The seed (psi, dpsi) lies in the starting exterior at its step: the
    first walking right (direction=+1), the last walking left (-1).  Into a
    region of value v from one of value u, psi' jumps by i (v - u) psi;
    across a region the propagator of _propagator_entries over |w| applies,
    its odd entries times direction.  Returns (regions, spans).  regions
    holds (psi, psi', log) per region in the profile's order: the pair at
    the region's left step (the first step for the left exterior), on its
    side, where the solution is exp(log) (psi, psi').  spans holds, per
    inner region in walk order, (psi, psi') where the walk enters it, the
    pair where it leaves it before the next jump (already divided by
    exp(rescale)), d = eps - v, m, and the sqrt(|m|) w and rescale of
    _propagator_entries (None for a region that rescales nothing).
    """
    steps, values = potential.breakpoints, potential.values
    last = len(values) - 1
    log = np.zeros(np.shape(eps))
    regions = [None] * (last + 1)
    spans = []
    walk = range(last + 1) if direction > 0 else range(last, -1, -1)
    for r in walk:
        if r != walk[0]:
            dpsi = dpsi + 1j * (values[r] - values[r - direction]) * psi
        if direction > 0:
            regions[r] = psi, dpsi, log
        if 0 < r < last:
            d = eps - values[r]
            m = k * k - d**2
            c, sdiv, ks, rw, rescale = _propagator_entries(m, steps[r] - steps[r - 1])
            if direction < 0:
                sdiv, ks = -sdiv, -ks
            end_psi, end_dpsi = c * psi + sdiv * dpsi, ks * psi + c * dpsi
            spans.append((psi, dpsi, end_psi, end_dpsi, d, m, rw, rescale))
            psi, dpsi = end_psi, end_dpsi
            if rescale is not None:
                log = log + rescale
        if direction < 0:
            regions[r] = psi, dpsi, log
    return regions, spans


def _transfer_phase_slope(potential: PiecewiseConstant, k, eps):
    """(theta, dtheta/deps) of a piecewise profile, elementwise in eps, read
    off the one walk of _carry from the left exterior.

    theta = pi/2 + phi(x_R) - phi_R, where phi = -arg psi_t1 is the Prufer
    angle of the solution that decays to the left, read at every step, and
    phi_R is the right exterior's decaying direction: bound states are the
    crossings theta = pi/2 + n pi.  Across a region phi changes by less
    than pi, except that an oscillatory one (q^2 = -m > 0) adds sign(d) pi
    for each of its floor(q w / pi) half-turns, each of which negates
    psi_t1; q w is the walk's.  (r^2 dphi/deps)' = r^2 with r = 2 |psi_t1|
    makes dtheta/deps the integral of |psi|^2 over x < x_R divided by
    |psi(x_R)|^2, plus the right exterior's 1 / (2 p_R): theta increases
    strictly.  The integral is summed in the walk's running scale, region
    by region in closed form: area <- area exp(-2 rescale) + the region's
    integral in units of exp(2 log) at its exit, so no term overflows; a
    region that rescales nothing shrinks nothing.  Equal exteriors share
    their d, p, k + p and 1 / (2 p).  Where a decay rate vanishes the slope is infinite,
    and numpy warns unless the caller holds an np.errstate guard (divide and invalid).
    """
    steps, values = potential.breakpoints, potential.values
    d_lo = eps - values[0]
    p_lo = np.sqrt(np.maximum(k * k - d_lo**2, 0.0))
    equal = values[0] == values[-1]
    if equal:
        d_hi, p_hi = d_lo, p_lo
    else:
        d_hi = eps - values[-1]
        p_hi = np.sqrt(np.maximum(k * k - d_hi**2, 0.0))
    # angles of the left exterior's growing and the right one's decaying
    # eigenvector of M = [[k, -d], [d, -k]], (k + p, d) and (d, k + p), or
    # for k < 0 (d, k - p) and (p - k, -d): each on one branch over the band
    if k >= 0.0:
        kp_lo = k + p_lo
        phi_l, phi_r = np.arctan2(d_lo, kp_lo), np.arctan2(kp_lo if equal else k + p_hi, d_hi)
    else:
        phi_l, phi_r = np.arctan2(k - p_lo, d_lo), np.arctan2(-d_hi, p_hi - k)
    seed = np.exp(-1j * phi_l)
    regions, spans = _carry(potential, k, eps, seed, p_lo * seed, 1)
    theta = phi_l - phi_r + 0.5 * math.pi
    area = tail = 1.0 / (2.0 * p_lo)
    for r, (psi, dpsi, end_psi, end_dpsi, d, m, rw, rescale) in enumerate(spans, 1):
        turns = np.floor(np.where(m < 0.0, rw, 0.0) / math.pi)
        flip = 1.0 - 2.0 * (turns % 2.0)
        conj = np.conj(psi)
        turn = flip * end_psi * conj
        theta = theta + np.sign(d) * turns * math.pi - np.arctan2(turn.imag, turn.real)
        # 2m int |psi|^2 = [Re(conj(psi) psi')] across the region
        # - w (|psi'|^2 - m |psi|^2), the last constant there, in units
        # of exp(2 log) at the exit, where the entry's terms shrink by
        # exp(-2 rescale)
        w = steps[r] - steps[r - 1]
        cross, size, grad = (conj * dpsi).real, np.abs(psi) ** 2, np.abs(dpsi) ** 2
        entry = cross + w * (grad - m * size)
        if rescale is not None:
            shrink = np.exp(-2.0 * rescale)
            entry, area = shrink * entry, area * shrink
        inside = ((np.conj(end_psi) * end_dpsi).real - entry) / (2.0 * m)
        near = rw * rw < _AREA_SERIES_CUT
        if np.count_nonzero(near):
            # that difference cancels as m w^2 -> 0: there the integral
            # of |c psi + (s/kappa) psi'|^2 to second order in z = m w^2
            z = m * w * w
            series = w * (size * (1.0 + z * (1.0 / 3.0 + z / 15.0))
                          + w * cross * (1.0 + z * (1.0 / 3.0 + z * (2.0 / 45.0)))
                          + w * w * grad * (1.0 / 3.0 + z * (1.0 / 15.0 + z * (2.0 / 315.0))))
            inside = np.where(near, series if rescale is None else shrink * series, inside)
        area = area + inside
    slope = area / np.abs(regions[-1][0]) ** 2 + (tail if equal else 1.0 / (2.0 * p_hi))
    return theta, slope


def general_secular(config: FieldConfig, k: float) -> SecularFunction:
    """Secular function and phase of an arbitrary piecewise electrostatic
    profile.

    The domain is the band of _band, the one the square well's closed form
    shares: the window where both exteriors decay, narrowed to where some
    inner region oscillates.  binds is set by the weak-coupling rule of
    core._binds, taken on the electric steps alone.  Raises ConfigError
    for a k that is not finite.
    """
    from .core import _binds  # core loads with the transfer route alone

    pot = _electrostatic_steps(config)
    if not math.isfinite(k):
        raise ConfigError(f"k must be finite, got {k}")
    lo, hi = _band(k, pot.values)
    return _from_phase(lo, hi, lambda eps: _transfer_phase_slope(pot, k, eps), _binds(pot, None, k))


def square_well_config(v0: float, half_width: float = 1.0) -> FieldConfig:
    """FieldConfig for the canonical electrostatic square well."""
    from .core import FieldConfig, square_well
    return FieldConfig(electric=square_well(v0, half_width))
