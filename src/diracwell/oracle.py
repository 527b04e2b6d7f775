"""Independent cross-checks: grid diagonalization and direct shooting.

Nothing here shares algebra with the matching construction.  The grid
route discretizes the decoupled second-order problem with a three-point
stencil and Dirichlet walls; the shooting route integrates the coupled
first-order system numerically from both exteriors and looks for the
matching determinant to vanish, which it finds with its own scan and
lockstep bisection: the module imports only core and errors from the
package.  Agreement between these and the secular roots is the main
correctness evidence for the solver.
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
from .errors import ConfigError, GridTooCoarse, NonDecayingExterior, UnsupportedRegime

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
PROPAGATOR_BLOCK = 8192  # (step x energy) elements per block of the smooth march
EDGE_POINTS = 12  # geometric scan points toward each band edge of a stepwise profile
EDGE_MARGIN = 1e-6  # roots this close to a band edge are dropped


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
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError(f"grid bounds must be finite, got [{self.x_min}, {self.x_max}]")
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
    h^2 error.  Raises ValueError for a non-finite alpha or beta or a beta
    that is not positive, and UnsupportedRegime for |alpha| >= 1.
    """
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError(f"alpha and beta must be finite, got {alpha}, {beta}")
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


def _check_momentum_and_step(k: float, step: float) -> None:
    if not math.isfinite(k):
        raise ConfigError(f"k must be finite, got {k}")
    if not (step > 0.0 and math.isfinite(step)):
        raise ConfigError(f"step must be finite and positive, got {step}")


def _renormalize(psi: np.ndarray) -> None:
    scale = np.maximum(np.abs(psi[:, 0]), np.abs(psi[:, 1]))
    psi /= scale[:, None]


def _rk4_power(s, h, n):
    """Coefficients (u, v) of R^n = u I + v M, up to a positive factor per
    energy, for the classical fourth-order step R on a constant segment.

    M = [[w, -d], [d, -w]] squares to s I with s = w^2 - d^2, so
    R = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24 = u I + v M with y = h^2 s,
    u = 1 + y/2 + y^2/24 and v = h (1 + y/6), and such pairs multiply as
    (u1 u2 + s v1 v2, u1 v2 + v1 u2).  Every square is divided by
    c = u^2 + |s| v^2 > 0, which bounds its |u| and |v| sqrt|s| by 1, so
    a wide segment neither overflows (s > 0) nor underflows (s < 0).
    u is even and v odd in h, bit for bit.
    """
    y = h * h * s
    u = 1.0 + y * (0.5 + y / 24.0)
    v = h * (1.0 + y / 6.0)
    acc = None
    while True:
        if n & 1:
            acc = (u, v) if acc is None else (acc[0] * u + s * acc[1] * v, acc[0] * v + acc[1] * u)
        n >>= 1
        if not n:
            return acc
        uu = u * u
        svv = s * v * v
        c = uu + np.abs(svv)
        u, v = (uu + svv) / c, 2.0 * u * v / c


def _advance_stepwise(config, k, eps, psi, points, step, powers):
    """March psi across constant segments, applying on each the power
    u I + v M of its one-step fourth-order matrix.

    powers holds the powers already taken at these energies, keyed on
    (|h|, steps, w, v): a segment marched with h < 0 takes (u, -v) from
    the entry of its mirror image, so the march from the right of a
    mirror-symmetric well reuses the powers of the march from the left.
    """
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
        d = eps - v
        key = (abs(h), n, w, v)
        if key not in powers:
            powers[key] = _rk4_power(w * w - d * d, abs(h), n)
        cu, cv = powers[key]
        if h < 0.0:
            cv = -cv
        m0 = w * psi[:, 0] - d * psi[:, 1]
        m1 = d * psi[:, 0] - w * psi[:, 1]
        psi = np.stack([cu * psi[:, 0] + cv * m0, cu * psi[:, 1] + cv * m1], axis=1)
        _renormalize(psi)
    return psi


def _mul(a, b):
    """2x2 products a @ b taken elementwise over the trailing axes of
    arrays shaped (2, 2, ...)."""
    return a[:, :1] * b[:1] + a[:, 1:] * b[1:]


def _rk4_propagators(w, d, h):
    """Propagators P_j = I + h/6 (K1 + 2 K2 + 2 K3 + K4) of the classical
    fourth-order step psi -> psi + h/6 (k1 + 2 k2 + 2 k3 + k4), shaped
    (2, 2, steps, energies).

    w (samples, 1) and d (samples, energies) hold w = k + a and
    d = eps - v at the 2 steps + 1 half-step samples, giving
    M_0, M_m, M_1 = [[w, -d], [d, -w]] at each step's start, middle and
    end.  With M^2 = (w^2 - d^2) I = s I and
    M_a M_b = (w_a w_b - d_a d_b) I + (d_a w_b - w_a d_b) [[0, 1], [1, 0]],
    the stages K1 = M_0, K2 = M_m (I + h/2 K1), K3 = M_m (I + h/2 K2),
    K4 = M_1 (I + h K3) sum to
        (1 + h^2 s_m / 2)(M_0 + M_1) + 4 M_m
        + h (s_m I + M_m M_0 + M_1 M_m) + h^3 s_m / 4 M_1 M_0.
    """
    w0, wm, w1 = w[:-1:2], w[1::2], w[2::2]
    d0, dm, d1 = d[:-1:2], d[1::2], d[2::2]
    sm = wm * wm - dm * dm
    g = 1.0 + 0.5 * h * h * sm
    diag = g * (w0 + w1) + 4.0 * wm  # coefficient of diag(1, -1)
    skew = g * (d0 + d1) + 4.0 * dm  # coefficient of [[0, -1], [1, 0]]
    c3 = 0.25 * h * h * h * sm
    # coefficients of I and of [[0, 1], [1, 0]]
    ident = h * (sm + (wm * w0 - dm * d0) + (w1 * wm - d1 * dm)) + c3 * (w1 * w0 - d1 * d0)
    swap = h * ((dm * w0 - wm * d0) + (d1 * wm - w1 * dm)) + c3 * (d1 * w0 - w1 * d0)
    f = h / 6.0
    p = np.empty((2, 2) + d0.shape)
    p[0, 0] = 1.0 + f * (ident + diag)
    p[1, 1] = 1.0 + f * (ident - diag)
    p[0, 1] = f * (swap - skew)
    p[1, 0] = f * (swap + skew)
    return p


def _chain(p):
    """P_{m-1} ... P_1 P_0 for p shaped (2, 2, m, energies), up to a
    positive factor per energy: neighbours are multiplied pairwise, and
    every partial product is divided by its largest entry, which keeps it
    finite and keeps the sign of its determinant."""
    while p.shape[2] > 1:
        m = p.shape[2]
        q = _mul(p[:, :, 1::2], p[:, :, : m - 1 : 2])
        if m % 2:  # the unpaired latest step multiplies the last pair
            q[:, :, -1] = _mul(p[:, :, -1], q[:, :, -1])
        q /= np.abs(q).max(axis=(0, 1))
        p = q
    return p[:, :, 0]


def _advance_sampled(config, k, eps, psi, x_from, x_to, step):
    """Classical fourth-order march with field samples at the half steps.

    The steps are taken in blocks of at most PROPAGATOR_BLOCK (step x
    energy) elements: each block's per-step propagators are built at once,
    multiplied into one 2x2 per energy and applied to psi.
    """
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
    w = (k + ay)[:, None]
    per_block = max(1, PROPAGATOR_BLOCK // max(1, len(eps)))
    for start in range(0, n, per_block):
        s = slice(2 * start, 2 * min(start + per_block, n) + 1)
        p = _chain(_rk4_propagators(w[s], eps - v[s, None], h))
        psi = (p[:, 0] * psi[:, 0] + p[:, 1] * psi[:, 1]).T
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
    decaying solution on one of the exteriors, and ConfigError for a
    non-finite k or energy or a step that is not finite and positive.
    """
    k = label.k
    epsilon = label.epsilon
    eps = np.atleast_1d(np.asarray(epsilon, dtype=float))
    _check_momentum_and_step(k, step)
    if not np.all(np.isfinite(eps)):
        raise ConfigError("epsilon must be finite")
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
        powers: dict = {}
        psi_left = _advance_stepwise(config, k, eps, psi_left, left_pts, step, powers)
        psi_right = _advance_stepwise(config, k, eps, psi_right, right_pts, step, powers)
    else:
        psi_left = _advance_sampled(config, k, eps, psi_left, x_lo, x_match, step)
        psi_right = _advance_sampled(config, k, eps, psi_right, x_hi, x_match, step)

    det = psi_left[:, 0] * psi_right[:, 1] - psi_left[:, 1] * psi_right[:, 0]
    return det if np.ndim(epsilon) else float(det[0])


# ---------------------------------------------------------------------------
# roots of the matching determinant: a scan, then lockstep bisection
# ---------------------------------------------------------------------------


def _scan_grid(lo, hi, scan_points, stepwise) -> np.ndarray:
    """Scan energies of the band (lo, hi).

    scan_points uniform interior points and, for a stepwise profile,
    EDGE_POINTS toward each edge, geometric from 2 * EDGE_MARGIN out to the
    outermost uniform point, so a root inside an edge cell is bracketed
    too.  They fall on the outermost uniform points when 2 * EDGE_MARGIN is
    not below one cell.
    """
    uniform = np.linspace(lo, hi, scan_points + 2)[1:-1]
    if not stepwise:
        return uniform
    cell = (hi - lo) / (scan_points + 1)
    near = min(2.0 * EDGE_MARGIN / cell, 1.0)
    offsets = cell * near ** (1.0 - np.arange(EDGE_POINTS) / EDGE_POINTS)
    low = np.minimum(lo + offsets, uniform[0])
    high = np.maximum(hi - offsets[::-1], uniform[-1])
    return np.concatenate([low, uniform, high])


def _depth(live, budget, a, b, tol) -> int:
    """Halvings per call: the most whose midpoint tree, 2^depth - 1 points
    per bracket, keeps the call within budget points, at least one, spread
    evenly over the calls that the widest bracket still needs to reach tol
    or adjacent doubles."""
    most = max(1, (int(budget) // live + 1).bit_length() - 1)
    if most == 1:
        return 1
    floor = np.maximum(tol, np.spacing(np.maximum(np.abs(a), np.abs(b))))
    need = max(1, int(np.ceil(np.log2(np.max((b - a) / floor)))))
    calls = -(-need // most)
    return -(-need // calls)


def _midpoints(a, b, depth) -> np.ndarray:
    """Every midpoint that depth halvings of the brackets [a, b] can visit,
    shaped (brackets, 2^depth - 1): level j's 2^j midpoints, in order, start
    at column 2^j - 1.  Each is 0.5 * (a + b) of its parent interval, as in
    scalar bisection, whose bracket is always a pair of neighbouring ends
    of one level."""
    levels = [0.5 * (a + b)[:, None]]
    ends = np.stack([a, levels[0][:, 0], b], axis=1)
    for _ in range(depth - 1):
        mid = 0.5 * (ends[:, :-1] + ends[:, 1:])
        levels.append(mid)
        grown = np.empty((ends.shape[0], 2 * ends.shape[1] - 1))
        grown[:, ::2] = ends
        grown[:, 1::2] = mid
        ends = grown
    return np.concatenate(levels, axis=1)


def _bisect(values, a, b, fa, tol, budget) -> np.ndarray:
    """Midpoints of the sign-changing brackets [a, b] of values, a function
    of an energy array, bisected to width tol.

    Each call evaluates every midpoint the next few halvings can visit (see
    _depth, _midpoints) and replays the scalar steps on them: a bracket
    halves at 0.5 * (a + b), keeps the right half when the midpoint value
    has the sign of fa, stops on an exact zero and freezes as soon as
    b - a <= tol, so no bit of a root depends on the batching.  A bracket
    whose midpoint is not strictly inside it freezes too, so a tol below
    the spacing of doubles ends at adjacent doubles.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    live = np.flatnonzero(b - a > tol)
    # the live brackets' state, compacted only when some bracket freezes
    al, bl, fl = a[live], b[live], np.asarray(fa, dtype=float)[live]
    while live.size:
        depth = _depth(live.size, budget, al, bl, tol)
        if depth == 1:
            mids, node = 0.5 * (al + bl), slice(None)
        else:
            # each bracket's tree is a heap: node h has children 2h + 1 (left
            # half) and 2h + 2 (right half), at flat index base + h
            mids = _midpoints(al, bl, depth)
            node = base = np.arange(live.size) * mids.shape[1]
            mids = mids.ravel()
        fm = np.asarray(values(mids), dtype=float)
        for level in range(depth):
            m, f = mids[node], fm[node]
            inside = (al < m) & (m < bl)
            go = inside if level == 0 else go & inside
            # fa need not follow a: only whether it is negative is read,
            # and a moves only to midpoints that agree with it on that
            same = (fl < 0.0) == (f < 0.0)
            right = go & same
            al = np.where(right, m, al)
            bl = np.where(go ^ right, m, bl)
            if not f.all():  # an exact zero shrinks its bracket onto m
                zero = go & (f == 0.0)
                al = np.where(zero, m, al)
                bl = np.where(zero, m, bl)
            go &= bl - al > tol
            if level + 1 < depth:
                node = 2 * node - base + 1 + same
        if not go.all():
            a[live], b[live] = al, bl
            live, al, bl, fl = live[go], al[go], bl[go], fl[go]
    return 0.5 * (a + b)


def _scan_roots(values, lo, hi, scan_points, tol, stepwise) -> list[float]:
    """Sorted roots of values on the open band (lo, hi): the brackets of
    _scan_grid, bisected together by _bisect in calls of up to the scan's
    size for a stepwise profile and of one halving for a smooth one, whose
    march costs in proportion to its energies.  Roots within EDGE_MARGIN of
    an edge are dropped: the determinant can vanish at a band edge without
    a bound state there."""
    if not lo < hi:
        return []
    grid = _scan_grid(lo, hi, scan_points, stepwise)
    vals = np.asarray(values(grid), dtype=float)
    sign = np.sign(vals)
    i = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    bracketed = _bisect(values, grid[i], grid[i + 1], vals[i], tol, grid.size if stepwise else 0)
    # a scan point on a root counts once, also where edge points coincide
    fresh = np.concatenate([[True], grid[1:] > grid[:-1]])
    roots = np.concatenate([bracketed, grid[(sign == 0) & fresh]])
    roots = roots[(roots - lo > EDGE_MARGIN) & (hi - roots > EDGE_MARGIN)]
    return np.sort(roots).tolist()


def shooting_bound_states(
    config: FieldConfig,
    k: float,
    scan_points: int = 2000,
    tol: float = 1e-10,
    step: float = DEFAULT_STEP,
    x_match: float | None = None,
) -> list[float]:
    """Bound-state energies of a field configuration by pure shooting.

    The zeros of dirac_shooting's matching determinant on the band where
    both exteriors decay, found by _scan_roots: scan_points uniform scan
    points (with EDGE_POINTS toward each edge for a stepwise profile; a
    smooth profile's levels can crowd into a band edge, where no finite
    scan completes them), each bracket bisected to width tol, an exact
    zero or adjacent doubles, and roots within EDGE_MARGIN of an edge
    dropped.  Raises ConfigError for a scan_points that is not an integer
    of at least two, a tol that is not finite and positive, or a k or step
    that dirac_shooting rejects.
    """
    if not isinstance(scan_points, (int, np.integer)) or scan_points < 2:
        raise ConfigError(f"scan_points must be an integer of at least 2, got {scan_points!r}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigError(f"tol must be finite and positive, got {tol}")
    _check_momentum_and_step(k, step)
    _, _, (v_minus, v_plus), (a_minus, a_plus) = _config_window(config)
    lo = max(v_minus - abs(k + a_minus), v_plus - abs(k + a_plus))
    hi = min(v_minus + abs(k + a_minus), v_plus + abs(k + a_plus))
    return _scan_roots(
        lambda eps: dirac_shooting(config, QuantumLabel(k, eps), step, x_match),
        lo, hi, scan_points, tol,
        stepwise=_is_stepwise(config.electric) and _is_stepwise(config.magnetic),
    )
