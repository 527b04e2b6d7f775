"""Independent cross-checks: grid diagonalization and direct shooting.

Nothing here shares algebra with the matching construction.  The grid
route discretizes the decoupled second-order problem with a three-point
stencil and Dirichlet walls; the shooting route integrates the coupled
first-order system numerically from both exteriors and matches the two
solutions.  On a stepwise profile it counts the windings of its own RK4
march, so its phase gives every level; on a smooth profile it scans the
matching determinant.  One bracketed Illinois secant solves both.  The
module imports only core and errors from the package.  Agreement between these and the secular roots is the main
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
PROPAGATOR_STEPS = 512  # steps per block of the smooth march
SECANT_CALLS = 40  # calls after which a bracket still open is bisected
OSCILLATOR_SPAN = 14.0  # half-width of the oscillator grid, in oscillator lengths


# ---------------------------------------------------------------------------
# second-order grid route
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid for the three-point Dirichlet eigenproblem."""

    x_min: float
    x_max: float
    points: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError(f"grid bounds must be finite, got [{self.x_min}, {self.x_max}]")
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if not isinstance(self.points, (int, np.integer)):
            raise ValueError(f"points must be an integer, got {self.points!r}")
        if self.points < 3:
            raise ValueError("need at least three grid points")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.points - 1)

    def refined(self) -> "GridSpec":
        return GridSpec(self.x_min, self.x_max, 2 * self.points - 1)


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
    richardson: bool = True,
) -> np.ndarray:
    """Grid eigenvalues of the oscillator the proportional problem reduces
    to; level n sits at 2 n beta sqrt(1 - alpha^2) in exact arithmetic.

    The window spans +/- OSCILLATOR_SPAN oscillator lengths.  With
    richardson=True the three-point values at h and h/2 are extrapolated,
    removing the leading h^2 error.  Raises ValueError for a non-finite
    alpha or beta or a beta that is not positive, and UnsupportedRegime
    for |alpha| >= 1.
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
    spec = GridSpec(-OSCILLATOR_SPAN * length, OSCILLATOR_SPAN * length, points)
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


def _seed_vectors(w: float, delta: np.ndarray, outward: bool):
    """Unit eigenvectors (psi_1, psi_2) of the constant exterior system,
    batch over delta.

    outward=False gives the direction growing to the right (decaying toward
    -inf), outward=True the one decaying toward +inf.  The representation
    switches with the sign of w to avoid cancellation, and keeps the angle
    atan2(psi_2, psi_1) on one branch over the band: for w < 0 the decaying
    direction is (p - w, -delta), as (w - p, delta) would jump by 2 pi at
    delta = 0.
    """
    p = np.sqrt(w * w - delta * delta)
    if not outward:
        first, second = (w + p, delta) if w >= 0 else (delta, w - p)
    else:
        first, second = (delta, w + p) if w >= 0 else (p - w, -delta)
    norm = np.sqrt(first * first + second * second)
    return first / norm, second / norm


def _check_momentum_and_step(k: float, step: float) -> None:
    if not math.isfinite(k):
        raise ConfigError(f"k must be finite, got {k}")
    if not (step > 0.0 and math.isfinite(step)):
        raise ConfigError(f"step must be finite and positive, got {step}")


def _renormalize(psi: np.ndarray) -> None:
    scale = np.maximum(np.abs(psi[:, 0]), np.abs(psi[:, 1]))
    psi /= scale[:, None]


def _rk4_power(s, h, n):
    """Coefficients (u_n, v_n) of R^n = u_n I + v_n M, up to a positive
    factor per energy, for the classical fourth-order step R on a constant
    segment, and where s < 0 the half-turns floor(n alpha / pi) of R^n.

    M = [[w, -d], [d, -w]] squares to s I with s = w^2 - d^2, so
    R = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24 = u I + v M with y = h^2 s,
    u = 1 + y/2 + y^2/24 and v = h (1 + y/6).  With sigma = sqrt|s|, R^n is
    taken in closed form:
    - s < 0: M / sigma squares to -I, so R is a rotation by
      alpha = atan2(v sigma, u) times a positive factor, and
      (u_n, v_n) = (cos n alpha, sin n alpha / sigma);
    - s > 0: R has the eigenvalues u +/- v sigma > 0, so with their ratio
      r = 1 - 2 v sigma / (u + v sigma),
      (u_n, v_n) = ((1 + r^n) / 2, (1 - r^n) / (2 sigma));
    - s = 0: R = I + h M, so (u_n, v_n) = (1, n h).
    All are bounded, so a wide segment neither overflows nor underflows.
    The half-turns are NaN where the one-step u or v is not positive: such
    a step turns by pi/2 or more, too coarse to count.  The decay branch
    is taken only where some s >= 0, and the NaN mask only where some u or
    v is not positive.
    Everything is taken at |h|, then v_n negated for h < 0: u_n is even and
    v_n odd in h, bit for bit.
    """
    h_abs = abs(h)
    y = h_abs * h_abs * s
    u = 1.0 + y * (0.5 + y / 24.0)
    v = h_abs * (1.0 + y / 6.0)
    sigma = np.sqrt(np.abs(s))
    vs = v * sigma
    osc = s < 0.0
    angle = n * np.arctan2(vs, u)
    if osc.all():
        un, vn = np.cos(angle), np.sin(angle) / sigma
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            decay = np.expm1(n * np.log1p(-2.0 * vs / (u + vs)))  # r^n - 1
            un = np.where(osc, np.cos(angle), 1.0 + 0.5 * decay)
            vn = np.where(s == 0.0, n * h_abs, np.where(osc, np.sin(angle), -0.5 * decay) / sigma)
    turns = np.floor(angle / math.pi)
    fine = (u > 0.0) & (v > 0.0)
    if not fine.all():
        turns = np.where(fine, turns, np.nan)
    return un, (vn if h >= 0.0 else -vn), turns


def _segments(config, k, points, step):
    """(h, steps, w, v) of the constant segments between neighbouring
    points, marched in steps of h no longer than step."""
    out = []
    for a, b in zip(points[:-1], points[1:]):
        width = b - a
        if width == 0.0:
            continue
        n = max(1, math.ceil(abs(width) / step))
        mid = 0.5 * (a + b)
        v = evaluate_potential(config.electric, mid) if config.electric is not None else 0.0
        ay = evaluate_potential(config.magnetic, mid) if config.magnetic is not None else 0.0
        out.append((width / n, n, k + ay, v))
    return out


def _advance_stepwise(segments, eps, psi, powers):
    """March psi = (psi_1, psi_2) across constant segments, applying on
    each the power u I + v M of its one-step fourth-order matrix, and carry
    its angle phi = atan2(psi_2, psi_1) continuously from its first value.
    Returns (psi, phi).

    On a segment the angle obeys phi' = d - w sin 2 phi.  Where s < 0 it
    turns one way, by the sign g = sign(d) sign(h): R^n, a rotation by
    n alpha (see _rk4_power), turns it by g (floor(n alpha / pi) pi + rem),
    rem in [0, pi) being the wrapped change in atan2, read in
    [-pi/2, 3pi/2) so that rounding cannot carry it across a half-turn.
    Where s >= 0 the change stays within (-pi, pi), the wrapped change.
    Both read the change in a window [c, c + 2 pi): c = g (floor + 1/2) pi
    - pi where s < 0, and -pi elsewhere.

    powers holds, per energy, (u, v, g (floor + 1/2) pi) of the segments
    already taken at these energies, keyed on (|h|, steps, w, v): a segment
    marched with h < 0 negates the entry of its mirror image, whose v and g
    are odd in h, so the march from the right of a mirror-symmetric well
    reuses the powers of the march from the left.
    """
    p1, p2 = psi
    wrapped = phi = np.arctan2(p2, p1)
    for h, n, w, v in segments:
        d = eps - v
        key = (abs(h), n, w, v)
        if key not in powers:
            s = w * w - d * d
            cu, cv, turns = _rk4_power(s, abs(h), n)
            powers[key] = cu, cv, np.where(s < 0.0, np.sign(d) * (turns + 0.5) * math.pi, 0.0)
        cu, cv, lead = powers[key]
        if h < 0.0:
            cv, lead = -cv, -lead
        m1 = w * p1 - d * p2
        m2 = d * p1 - w * p2
        p1, p2 = cu * p1 + cv * m1, cu * p2 + cv * m2
        scale = np.maximum(np.abs(p1), np.abs(p2))
        p1, p2 = p1 / scale, p2 / scale
        now = np.arctan2(p2, p1)
        low = lead - math.pi
        phi = phi + low + np.mod(now - wrapped - low, 2.0 * math.pi)
        wrapped = now
    return (p1, p2), phi


def _mul(a, b):
    """2x2 products a @ b taken elementwise over the trailing axes of
    arrays shaped (2, 2, ...)."""
    return a[:, :1] * b[:1] + a[:, 1:] * b[1:]


def _rk4_propagators(w, d, h):
    """Propagators P_j = I + h/6 (K1 + 2 K2 + 2 K3 + K4) of the classical
    fourth-order step psi -> psi + h/6 (k1 + 2 k2 + 2 k3 + k4), shaped
    (2, 2, energies, steps).

    w (1, samples) and d (energies, samples) hold w = k + a and
    d = eps - v at the 2 steps + 1 half-step samples, giving
    M_0, M_m, M_1 = [[w, -d], [d, -w]] at each step's start, middle and
    end.  With M^2 = (w^2 - d^2) I = s I and
    M_a M_b = (w_a w_b - d_a d_b) I + (d_a w_b - w_a d_b) [[0, 1], [1, 0]],
    the stages K1 = M_0, K2 = M_m (I + h/2 K1), K3 = M_m (I + h/2 K2),
    K4 = M_1 (I + h K3) sum to
        (1 + h^2 s_m / 2)(M_0 + M_1) + 4 M_m
        + h (s_m I + M_m M_0 + M_1 M_m) + h^3 s_m / 4 M_1 M_0.
    """
    w0, wm, w1 = w[:, :-1:2], w[:, 1::2], w[:, 2::2]
    d0, dm, d1 = d[:, :-1:2], d[:, 1::2], d[:, 2::2]
    f = h / 6.0
    sm = wm * wm - dm * dm
    fg = f + (0.5 * f * h * h) * sm
    c3 = (0.25 * f * h * h * h) * sm
    wsum, dsum = w0 + w1, d0 + d1
    # h/6 times the coefficients of diag(1, -1) and [[0, -1], [1, 0]], and
    # of I and [[0, 1], [1, 0]], where M_m M_0 + M_1 M_m adds
    # w_m (w_0 + w_1) - d_m (d_0 + d_1) to the first and
    # d_m (w_0 - w_1) + w_m (d_1 - d_0) to the second
    diag = fg * wsum + (4.0 * f) * wm
    skew = fg * dsum + (4.0 * f) * dm
    ident = (f * h) * (sm + wm * wsum - dm * dsum) + c3 * (w1 * w0 - d1 * d0)
    swap = (f * h) * (dm * (w0 - w1) + wm * (d1 - d0)) + c3 * (d1 * w0 - w1 * d0)
    p = np.empty((2, 2) + d0.shape)
    one = 1.0 + ident
    np.add(one, diag, out=p[0, 0])
    np.subtract(one, diag, out=p[1, 1])
    np.subtract(swap, skew, out=p[0, 1])
    np.add(swap, skew, out=p[1, 0])
    return p


def _chain(p):
    """P_{m-1} ... P_1 P_0 for p shaped (2, 2, energies, m), up to a
    positive factor per energy: neighbours are multiplied pairwise, and
    every second round of products is divided by its largest entry, which
    keeps it finite and keeps the sign of its determinant.  A round
    multiplies at most three factors, whose largest entries a, b, c bound
    the product's by 4 a b c, so two rounds from entries at most e stay
    below 256 e^9."""
    rounds = 0
    while p.shape[3] > 1:
        m = p.shape[3]
        q = _mul(p[..., 1::2], p[..., : m - 1 : 2])
        if m % 2:  # the unpaired latest step multiplies the last pair
            q[..., -1] = _mul(p[..., -1], q[..., -1])
        rounds += 1
        if rounds % 2 == 0:
            q /= np.abs(q).max(axis=(0, 1))
        p = q
    return p[..., 0]


def _advance_sampled(config, k, eps, psi, x_from, x_to, step):
    """Classical fourth-order march with field samples at the half steps.

    The march is cut into blocks of PROPAGATOR_STEPS steps and the
    energies into chunks that keep a block within PROPAGATOR_BLOCK (step x
    energy) elements: each block's per-step propagators are built at once,
    multiplied into one 2x2 per energy and applied to psi.  The blocks do
    not depend on the energies, so neither does any energy's result.
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
    w = (k + ay)[None, :]
    chunk = PROPAGATOR_BLOCK // min(n, PROPAGATOR_STEPS)
    out = np.empty_like(psi)
    for e in range(0, len(eps), chunk):
        part = psi[e : e + chunk]
        for start in range(0, n, PROPAGATOR_STEPS):
            s = slice(2 * start, 2 * min(start + PROPAGATOR_STEPS, n) + 1)
            p = _chain(_rk4_propagators(w[:, s], eps[e : e + chunk, None] - v[s], h))
            part = (p[:, 0] * part[:, 0] + p[:, 1] * part[:, 1]).T
            _renormalize(part)
        out[e : e + chunk] = part
    return out


def _shooter(config: FieldConfig, k: float, step: float, x_match):
    """Two-sided shooting as a function of an energy array: eps -> (det,
    theta), theta the shooting phase of a stepwise profile and None for a
    smooth one.

    The coupled first-order system is integrated from each exterior window
    edge, seeded with the decaying exterior direction, to x_match.  det is
    the determinant of the two arriving directions, and theta = phi_L - phi_R
    the difference of their angles, each carried continuously from its
    seed's branch (see _seed_vectors, _advance_stepwise).  Either solution
    has (r^2 dphi/deps)' = r^2, so theta increases strictly with eps, and
    det = -|psi_L| |psi_R| sin theta: bound states are the crossings
    theta = n pi.  Both exteriors must decay or, at a band edge, be
    critical: |eps - v| <= |k + a|, where w^2 - d^2 rounds to no negative.
    The window and a stepwise profile's segments are laid out once.
    """
    x_lo, x_hi, (v_minus, v_plus), (a_minus, a_plus) = _config_window(config)
    if x_match is None:
        x_match = 0.5 * (x_lo + x_hi)
    if not x_lo <= x_match <= x_hi:
        raise ValueError(f"x_match must lie in [{x_lo}, {x_hi}]")
    w_left, w_right = k + a_minus, k + a_plus

    if not (_is_stepwise(config.electric) and _is_stepwise(config.magnetic)):
        def shoot(eps):
            psi_left = np.stack(_seed_vectors(w_left, eps - v_minus, outward=False), axis=1)
            psi_right = np.stack(_seed_vectors(w_right, eps - v_plus, outward=True), axis=1)
            psi_left = _advance_sampled(config, k, eps, psi_left, x_lo, x_match, step)
            psi_right = _advance_sampled(config, k, eps, psi_right, x_hi, x_match, step)
            return psi_left[:, 0] * psi_right[:, 1] - psi_left[:, 1] * psi_right[:, 0], None

        return shoot

    breaks: set[float] = set()
    for profile in (config.electric, config.magnetic):
        if isinstance(profile, PiecewiseConstant):
            breaks.update(profile.breakpoints)
    inner = sorted(b for b in breaks if x_lo < b < x_hi)
    left = _segments(config, k, [x_lo] + [b for b in inner if b <= x_match] + [x_match], step)
    right = _segments(config, k, [x_hi] + [b for b in reversed(inner) if b > x_match] + [x_match], step)

    def shoot(eps):
        powers: dict = {}
        psi_left, phi_left = _advance_stepwise(
            left, eps, _seed_vectors(w_left, eps - v_minus, outward=False), powers)
        psi_right, phi_right = _advance_stepwise(
            right, eps, _seed_vectors(w_right, eps - v_plus, outward=True), powers)
        return psi_left[0] * psi_right[1] - psi_left[1] * psi_right[0], phi_left - phi_right

    return shoot


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
    epsilon = label.epsilon
    eps = np.atleast_1d(np.asarray(epsilon, dtype=float))
    _check_momentum_and_step(label.k, step)
    if not np.all(np.isfinite(eps)):
        raise ConfigError("epsilon must be finite")
    _, _, (v_minus, v_plus), (a_minus, a_plus) = _config_window(config)
    for w, v in ((label.k + a_minus, v_minus), (label.k + a_plus, v_plus)):
        d = eps - v
        if np.any(w * w - d * d <= 0.0):
            raise NonDecayingExterior(
                "no decaying exterior direction at some requested energy; "
                "bound states require |epsilon - v| < |k + a| on both tails"
            )
    det = _shooter(config, label.k, step, x_match)(eps)[0]
    return det if np.ndim(epsilon) else float(det[0])


# ---------------------------------------------------------------------------
# roots: one Illinois secant on a stepwise profile's phase crossings and a
# smooth profile's scanned determinant
# ---------------------------------------------------------------------------


def _finite(theta) -> np.ndarray:
    if not np.all(np.isfinite(theta)):
        raise UnsupportedRegime(
            "the shooting phase is not finite at some band energy: a segment's RK4 step "
            "turns by pi/2 or more there, too coarse to count its windings; take a smaller step"
        )
    return theta


def _illinois(values, a, b, fa, fb, target, tol, calls) -> np.ndarray:
    """Solve values = target, values a function of an energy array, on the
    brackets [a, b] at once by the Illinois secant; calls counts the calls
    of values already spent on them.

    fa and fb are values - target at a and b, of opposite signs.  Each
    call evaluates one point per live bracket: the secant point, clipped to
    [a + g, b - g] with g = 0.45 tol so that an end already on the root is
    passed and the bracket closes, or the midpoint where the clipped point
    is not strictly inside or calls have reached SECANT_CALLS.  It replaces
    the end whose value has its sign, an end kept twice in a row has its
    value halved, and an exact zero closes the bracket.  A bracket is done,
    at 0.5 (a + b), once it is tol wide, holds no double inside, or has
    closed onto an exact zero; only a call where some bracket is done
    compacts the batch, and with no bracket values is never called.
    """
    gap = 0.45 * tol
    target = np.zeros(np.shape(a)) + target
    roots = np.empty(target.size)
    todo = np.arange(target.size)
    kept = np.zeros(target.size)  # the end the last step kept: -1 for a, 1 for b
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            done = (b - a <= tol) | ~(np.nextafter(a, b) < b)
            if done.any():
                roots[todo[done]] = 0.5 * (a + b)[done]
                keep = ~done
                todo, target, a, b, fa, fb, kept = (v[keep] for v in (todo, target, a, b, fa, fb, kept))
            if not todo.size:
                return roots
            if calls < SECANT_CALLS:
                x = a - fa * (b - a) / (fb - fa)
                x = np.minimum(np.maximum(x, a + gap), b - gap)
                inside = (a < x) & (x < b)
                if not inside.all():
                    x = np.where(inside, x, 0.5 * (a + b))
            else:
                x = 0.5 * (a + b)
            f = np.asarray(values(x), dtype=float) - target
            calls += 1
            same = (f < 0.0) == (fa < 0.0)
            move_a, move_b = same | (f == 0.0), ~same | (f == 0.0)
            # Illinois: an end kept twice in a row has its value halved
            fb = np.where(move_a & (kept > 0.0), 0.5 * fb, fb)
            fa = np.where(move_b & (kept < 0.0), 0.5 * fa, fa)
            a, fa = np.where(move_a, x, a), np.where(move_a, f, fa)
            b, fb = np.where(move_b, x, b), np.where(move_b, f, fb)
            kept = np.where(move_a, 1.0, -1.0)


def _phase_roots(theta, lo, hi, tol) -> list[float]:
    """Sorted crossings theta = n pi on the open band (lo, hi) of theta, a
    function of an energy array increasing in energy.

    The crossings are those strictly between theta at the innermost doubles
    of the band, so none is missed and a zero of the determinant at a band
    edge is none; with none, the call at the band's ends is the only one.
    One regula-falsi call from the band's ends takes one point per
    crossing; those points, ordered as the crossings are, narrow each
    bracket onto the nearest of them on either side of its target.
    _illinois solves the brackets on theta - n pi.
    UnsupportedRegime where theta is not finite: the step is too coarse
    (see _rk4_power).
    """
    ends = np.array([np.nextafter(lo, hi), np.nextafter(hi, lo)])
    if not lo < ends[0] < ends[1]:
        return []
    th_lo, th_hi = _finite(theta(ends))
    target = math.pi * np.arange(math.floor(th_lo / math.pi) + 1, math.ceil(th_hi / math.pi))
    if not target.size:
        return []
    a, b = np.full(target.size, ends[0]), np.full(target.size, ends[1])
    fa, fb = th_lo - target, th_hi - target
    x = np.clip(a - fa * (b - a) / (fb - fa), a, b)
    th = _finite(theta(x))
    # theta at the points is ordered as the targets are, up to its
    # rounding, which the checks absorb
    below = np.searchsorted(th, target, side="right") - 1
    j = np.maximum(below, 0)
    use = (below >= 0) & (th[j] <= target) & (x[j] > a)
    a, fa = np.where(use, x[j], a), np.where(use, th[j] - target, fa)
    j = np.minimum(below + 1, x.size - 1)
    use = (below + 1 < x.size) & (th[j] >= target) & (x[j] < b)
    b, fb = np.where(use, x[j], b), np.where(use, th[j] - target, fb)
    b = np.where(fa == 0.0, a, b)  # an exact zero closes the bracket
    return _illinois(lambda eps: _finite(theta(eps)), a, b, fa, fb, target, tol, 1).tolist()


def _scan_grid(lo, hi, scan_points) -> np.ndarray:
    """The scan_points uniform interior points of the band (lo, hi),
    clipped to its innermost doubles, so that none lies on an edge."""
    grid = np.linspace(lo, hi, scan_points + 2)[1:-1]
    return np.clip(grid, np.nextafter(lo, hi), np.nextafter(hi, lo))


def _scan_roots(values, lo, hi, scan_points, tol) -> list[float]:
    """Sorted roots of values on the open band (lo, hi): the scan points
    where values is exactly zero, and the sign-changing cells of
    _scan_grid, solved together by _illinois."""
    if not np.nextafter(lo, hi) < hi:
        return []
    grid = _scan_grid(lo, hi, scan_points)
    vals = np.asarray(values(grid), dtype=float)
    sign = np.sign(vals)
    i = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    bracketed = _illinois(values, grid[i], grid[i + 1], vals[i], vals[i + 1], 0.0, tol, 1)
    # a scan point on a root counts once, also where a narrow band repeats points
    fresh = np.concatenate([[True], grid[1:] > grid[:-1]])
    return np.sort(np.concatenate([bracketed, grid[(sign == 0) & fresh]])).tolist()


def shooting_bound_states(
    config: FieldConfig,
    k: float,
    scan_points: int = 2000,
    tol: float = 1e-10,
    step: float = DEFAULT_STEP,
    x_match: float | None = None,
) -> list[float]:
    """Bound-state energies of a field configuration by pure shooting, on
    the band where both exteriors decay, each solved by _illinois to
    bracket width tol, an exact zero or adjacent doubles.

    A stepwise profile (electric, magnetic or both piecewise constant) has
    them as the crossings theta = n pi of its shooting phase (see _shooter),
    counted by _phase_roots, so none is lost at a band edge.  A smooth
    profile has them as the zeros of dirac_shooting's determinant that
    _scan_roots brackets on scan_points uniform points, however near an
    edge; its levels can crowd into a band edge, where no finite scan
    completes them.  Raises ConfigError for a scan_points that is not an
    integer of at least two, a tol that is not finite and positive, or a k
    or step that dirac_shooting rejects, and UnsupportedRegime for a step
    too coarse to count a stepwise profile's windings.
    """
    if not isinstance(scan_points, (int, np.integer)) or scan_points < 2:
        raise ConfigError(f"scan_points must be an integer of at least 2, got {scan_points!r}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigError(f"tol must be finite and positive, got {tol}")
    _check_momentum_and_step(k, step)
    _, _, (v_minus, v_plus), (a_minus, a_plus) = _config_window(config)
    lo = max(v_minus - abs(k + a_minus), v_plus - abs(k + a_plus))
    hi = min(v_minus + abs(k + a_minus), v_plus + abs(k + a_plus))
    if _is_stepwise(config.electric) and _is_stepwise(config.magnetic):
        shoot = _shooter(config, k, step, x_match)
        return _phase_roots(lambda eps: shoot(eps)[1], lo, hi, tol)
    return _scan_roots(
        lambda eps: dirac_shooting(config, QuantumLabel(k, eps), step, x_match),
        lo, hi, scan_points, tol,
    )
