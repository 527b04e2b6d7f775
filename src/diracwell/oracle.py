"""Independent cross-checks: grid diagonalization and direct shooting.

Nothing here shares algebra with the matching construction.  The grid
route discretizes the decoupled second-order problem with a three-point
stencil and Dirichlet walls; the shooting route integrates the coupled
first-order system numerically from both exteriors and looks for the
matching determinant to vanish.  Agreement between these and the secular
roots is the main correctness evidence for the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CoulombLike,
    FieldConfig,
    Linear,
    Lorentzian,
    PiecewiseConstant,
    QuantumLabel,
    Tanh,
    evaluate_potential,
)
from .errors import GridTooCoarse, NonDecayingExterior, UnsupportedRegime

__all__ = [
    "GridSpec",
    "grid_eigenvalues",
    "partner_potentials",
    "proportional_oscillator_levels",
    "dirac_shooting",
    "shooting_bound_states",
]

DEFAULT_STEP = 1e-3
SMOOTH_TAIL_TOL = 1e-8
SMOOTH_WINDOW_CAP = 50.0
_RENORM_EVERY = 256


# ---------------------------------------------------------------------------
# second-order grid route
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid for the three-point Dirichlet eigenproblem."""

    x_min: float
    x_max: float
    points: int
    boundary: str = "dirichlet"

    def __post_init__(self):
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.points < 3:
            raise ValueError("need at least three grid points")
        if self.boundary != "dirichlet":
            raise ValueError(f"unsupported boundary condition {self.boundary!r}")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.points - 1)

    def refined(self) -> "GridSpec":
        return GridSpec(self.x_min, self.x_max, 2 * self.points - 1, self.boundary)


def grid_eigenvalues(u, spec: GridSpec, count: int, tol: float | None = None) -> np.ndarray:
    """Lowest eigenvalues of -psi'' + u(x) psi with walls at the grid ends.

    u maps an x array to the potential samples.  With tol set, the spectrum
    is recomputed on a doubled grid; a level moving by more than tol raises
    GridTooCoarse, otherwise the doubled-grid values are returned.
    """
    from scipy.linalg import eigh_tridiagonal  # deferred: scipy.linalg dominates import time

    x = np.linspace(spec.x_min, spec.x_max, spec.points)
    h = spec.spacing
    interior = x[1:-1]
    diag = 2.0 / h**2 + np.asarray(u(interior), dtype=float)
    off = np.full(len(interior) - 1, -1.0 / h**2)
    vals = eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(0, count - 1)
    )
    if tol is None:
        return vals
    fine = grid_eigenvalues(u, spec.refined(), count)
    shift = np.max(np.abs(fine - vals))
    if shift > tol:
        raise GridTooCoarse(
            f"eigenvalues moved by {shift:.3e} under grid doubling (tol {tol:g})"
        )
    return fine


def partner_potentials(w, w_prime):
    """Pair of second-order potentials w^2 -/+ w' sharing a spectrum up to
    the ground level; handy for factorization checks."""
    return (lambda x: w(x) ** 2 - w_prime(x), lambda x: w(x) ** 2 + w_prime(x))


def proportional_oscillator_levels(
    alpha: float,
    beta: float,
    count: int,
    points: int = 6001,
    span: float = 14.0,
    richardson: bool = True,
) -> np.ndarray:
    """Grid eigenvalues of the oscillator the proportional problem reduces
    to; level n sits at 2 n beta sqrt(1 - alpha^2) in exact arithmetic.

    The window spans +/- span oscillator lengths.  With richardson=True the
    three-point values at h and h/2 are extrapolated, removing the leading
    h^2 error.
    """
    if abs(alpha) >= 1.0:
        raise UnsupportedRegime(
            f"oscillator reduction requires |alpha| < 1, got {alpha}"
        )
    if beta <= 0:
        raise ValueError("beta must be positive")
    scale = beta * math.sqrt(1.0 - alpha * alpha)
    length = 1.0 / math.sqrt(scale)
    u = lambda x: scale**2 * x**2 - scale
    spec = GridSpec(-span * length, span * length, points)
    coarse = grid_eigenvalues(u, spec, count)
    if not richardson:
        return coarse
    fine = grid_eigenvalues(u, spec.refined(), count)
    return (4.0 * fine - coarse) / 3.0


# ---------------------------------------------------------------------------
# first-order shooting route
# ---------------------------------------------------------------------------


def _profile_window(profile, which: str):
    """(x_lo, x_hi, value at -inf, value at +inf) beyond which the profile
    is treated as constant; None profiles contribute a token window."""
    if profile is None or profile.is_zero():
        return -1.0, 1.0, 0.0, 0.0
    if isinstance(profile, PiecewiseConstant):
        b = profile.breakpoints
        v = profile.values
        return b[0], b[-1], v[0], v[-1]
    if isinstance(profile, Linear):
        if profile.slope == 0.0:
            return -1.0, 1.0, 0.0, 0.0
        if which == "electric":
            raise NonDecayingExterior(
                "a linear scalar potential grows without bound; no exterior decay window exists"
            )
        raise UnsupportedRegime(
            "shooting needs an asymptotically constant vector potential; "
            "use the grid route for linear field profiles"
        )
    if isinstance(profile, Lorentzian):
        amp = abs(profile.strength)
        tol = SMOOTH_TAIL_TOL * max(amp, 1.0)
        xc = min(math.sqrt(max(amp / tol - 1.0, 1.0)), SMOOTH_WINDOW_CAP)
        return -xc, xc, 0.0, 0.0
    if isinstance(profile, CoulombLike):
        amp = abs(profile.strength)
        tol = SMOOTH_TAIL_TOL * max(amp, 1.0)
        xc = min(max(amp / tol, 1.0), SMOOTH_WINDOW_CAP)
        return -xc, xc, 0.0, 0.0
    if isinstance(profile, Tanh):
        xc = math.atanh(1.0 - SMOOTH_TAIL_TOL)
        return -xc, xc, -profile.strength, profile.strength
    raise UnsupportedRegime(f"no shooting window rule for {type(profile).__name__}")


def _config_window(config: FieldConfig):
    ew = _profile_window(config.electric, "electric")
    mw = _profile_window(config.magnetic, "magnetic")
    return (
        min(ew[0], mw[0]),
        max(ew[1], mw[1]),
        (ew[2], ew[3]),  # scalar potential limits
        (mw[2], mw[3]),  # vector potential limits
    )


def _is_stepwise(profile) -> bool:
    return profile is None or profile.is_zero() or isinstance(profile, PiecewiseConstant)


def _seed_vectors(w: float, delta: np.ndarray, outward: bool) -> np.ndarray:
    """Unit eigenvectors of the constant exterior system, batch over delta.

    outward=False gives the direction growing to the right (decaying toward
    -inf), outward=True the one decaying toward +inf.  The representation
    switches with the sign of w to avoid cancellation.
    """
    p = np.sqrt(w * w - delta * delta)
    n = len(delta)
    v = np.empty((n, 2))
    if not outward:
        if w >= 0:
            v[:, 0] = w + p
            v[:, 1] = delta
        else:
            v[:, 0] = delta
            v[:, 1] = w - p
    else:
        if w >= 0:
            v[:, 0] = delta
            v[:, 1] = w + p
        else:
            v[:, 0] = w - p
            v[:, 1] = delta
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


def _renormalize(psi: np.ndarray) -> None:
    scale = np.maximum(np.abs(psi[:, 0]), np.abs(psi[:, 1]))
    psi /= scale[:, None]


def _advance_stepwise(config, k, delta_of, psi, points, step):
    """March psi across constant segments with the one-step fourth-order
    matrix raised to the segment's step count by squaring."""
    n_eps = psi.shape[0]
    eye = np.zeros((n_eps, 2, 2))
    eye[:, 0, 0] = 1.0
    eye[:, 1, 1] = 1.0
    for a, b in zip(points[:-1], points[1:]):
        width = b - a
        if width == 0.0:
            continue
        n = max(1, math.ceil(abs(width) / step))
        h = width / n
        mid = 0.5 * (a + b)
        v = evaluate_potential(config.electric, mid) if config.electric is not None else 0.0
        ay = evaluate_potential(config.magnetic, mid) if config.magnetic is not None else 0.0
        w = k + ay
        delta = delta_of(v)
        A = np.empty((n_eps, 2, 2))
        A[:, 0, 0] = h * w
        A[:, 0, 1] = -h * delta
        A[:, 1, 0] = h * delta
        A[:, 1, 1] = -h * w
        A2 = A @ A
        A3 = A2 @ A
        R = eye + A + A2 / 2.0 + A3 / 6.0 + (A3 @ A) / 24.0
        acc = eye.copy()
        m = n
        while m:
            if m & 1:
                acc = R @ acc
            R = R @ R
            m >>= 1
        psi = (acc @ psi[:, :, None])[:, :, 0]
        _renormalize(psi)
    return psi


def _advance_sampled(config, k, delta_of, psi, x_from, x_to, step):
    """Classical fourth-order march with field samples at the half steps."""
    span = x_to - x_from
    if span == 0.0:
        return psi
    n = max(1, math.ceil(abs(span) / step))
    h = span / n
    xs = x_from + 0.5 * h * np.arange(2 * n + 1)
    v = (
        np.asarray(evaluate_potential(config.electric, xs), dtype=float)
        if config.electric is not None
        else np.zeros(len(xs))
    )
    ay = (
        np.asarray(evaluate_potential(config.magnetic, xs), dtype=float)
        if config.magnetic is not None
        else np.zeros(len(xs))
    )
    w = k + ay

    def apply(wj, dj, vec):
        out = np.empty_like(vec)
        out[:, 0] = wj * vec[:, 0] - dj * vec[:, 1]
        out[:, 1] = dj * vec[:, 0] - wj * vec[:, 1]
        return out

    for j in range(n):
        w0, wm, w1 = w[2 * j], w[2 * j + 1], w[2 * j + 2]
        d0, dm, d1 = delta_of(v[2 * j]), delta_of(v[2 * j + 1]), delta_of(v[2 * j + 2])
        k1 = apply(w0, d0, psi)
        k2 = apply(wm, dm, psi + 0.5 * h * k1)
        k3 = apply(wm, dm, psi + 0.5 * h * k2)
        k4 = apply(w1, d1, psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if j % _RENORM_EVERY == _RENORM_EVERY - 1:
            _renormalize(psi)
    _renormalize(psi)
    return psi


def dirac_shooting(
    config: FieldConfig,
    label: QuantumLabel,
    step: float = DEFAULT_STEP,
    x_match: float | None = None,
):
    """Matching determinant of two-sided shooting at label.epsilon.

    The coupled first-order system is integrated from each exterior window
    edge (seeded with the decaying exterior direction) to x_match; the
    determinant of the two arriving directions vanishes exactly at bound
    states.  label.epsilon may be an array of energies; the sign pattern
    of the result is what root bracketing consumes, the magnitude carries
    no meaning.

    Raises NonDecayingExterior when some requested energy admits no
    decaying solution on one of the exteriors.
    """
    k = label.k
    epsilon = label.epsilon
    eps = np.atleast_1d(np.asarray(epsilon, dtype=float))
    x_lo, x_hi, (v_minus, v_plus), (a_minus, a_plus) = _config_window(config)
    if x_match is None:
        x_match = 0.5 * (x_lo + x_hi)
    if not x_lo <= x_match <= x_hi:
        raise ValueError(f"x_match must lie in [{x_lo}, {x_hi}]")

    w_left = k + a_minus
    w_right = k + a_plus
    d_left = eps - v_minus
    d_right = eps - v_plus
    if np.any(w_left * w_left - d_left * d_left <= 0.0) or np.any(
        w_right * w_right - d_right * d_right <= 0.0
    ):
        raise NonDecayingExterior(
            "no decaying exterior direction at some requested energy; "
            "bound states require |epsilon - v| < |k + a| on both tails"
        )

    psi_left = _seed_vectors(w_left, d_left, outward=False)
    psi_right = _seed_vectors(w_right, d_right, outward=True)

    if _is_stepwise(config.electric) and _is_stepwise(config.magnetic):
        breaks: set[float] = set()
        for profile in (config.electric, config.magnetic):
            if isinstance(profile, PiecewiseConstant):
                breaks.update(profile.breakpoints)
        inner = sorted(b for b in breaks if x_lo < b < x_hi)
        left_pts = [x_lo] + [b for b in inner if b <= x_match] + [x_match]
        right_pts = [x_hi] + [b for b in reversed(inner) if b > x_match] + [x_match]
        psi_left = _advance_stepwise(
            config, k, lambda v: eps - v, psi_left, left_pts, step
        )
        psi_right = _advance_stepwise(
            config, k, lambda v: eps - v, psi_right, right_pts, step
        )
    else:
        psi_left = _advance_sampled(
            config, k, lambda v: eps - v, psi_left, x_lo, x_match, step
        )
        psi_right = _advance_sampled(
            config, k, lambda v: eps - v, psi_right, x_hi, x_match, step
        )

    det = psi_left[:, 0] * psi_right[:, 1] - psi_left[:, 1] * psi_right[:, 0]
    return det if np.ndim(epsilon) else float(det[0])


def shooting_bound_states(
    config: FieldConfig,
    k: float,
    scan_points: int = 2000,
    tol: float = 1e-10,
    step: float = DEFAULT_STEP,
    edge_margin: float = 1e-6,
    x_match: float | None = None,
) -> list[float]:
    """Bound-state energies of a field configuration by pure shooting.

    A batched scan over the exterior-decay band brackets sign changes of
    the matching determinant; every bracket is then bisected in lockstep
    (one batched determinant evaluation per iteration).  Roots within
    edge_margin of the band edges are discarded.
    """
    _, _, (v_minus, v_plus), (a_minus, a_plus) = _config_window(config)
    lo = max(v_minus - abs(k + a_minus), v_plus - abs(k + a_plus))
    hi = min(v_minus + abs(k + a_minus), v_plus + abs(k + a_plus))
    if not lo < hi:
        return []
    grid = np.linspace(lo, hi, scan_points + 2)[1:-1]
    vals = dirac_shooting(config, QuantumLabel(k, grid), step, x_match)
    sign = np.sign(vals)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if len(idx) == 0:
        return []
    a = grid[idx].copy()
    b = grid[idx + 1].copy()
    fa = vals[idx].copy()
    while np.max(b - a) > tol:
        mid = 0.5 * (a + b)
        fm = dirac_shooting(config, QuantumLabel(k, mid), step, x_match)
        goes_left = (fa < 0.0) == (fm < 0.0)
        a = np.where(goes_left, mid, a)
        fa = np.where(goes_left, fm, fa)
        b = np.where(goes_left, b, mid)
    roots = 0.5 * (a + b)
    return [float(r) for r in roots if r - lo > edge_margin and hi - r > edge_margin]
