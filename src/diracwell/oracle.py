"""Independent cross-checks: grid diagonalization and direct shooting.

Nothing here shares algebra with the matching construction.  The grid
route diagonalizes the decoupled second-order problem in a sine
discrete-variable representation between Dirichlet walls, with numpy
alone; the shooting route integrates the coupled first-order system
numerically from both exteriors and matches the two solutions at the
centre of the window beyond which the fields are constant.  On a
stepwise profile it counts the windings of its own RK4 march, so its
phase gives every level; on a smooth profile, a Lorentzian, it scans
the matching determinant.  Where the field is even about that centre,
between equal exteriors, both march one side only and fold the other
from it by one rule: the first side's solution swapped, with the same
bits as a march of its own.
One bracketed Anderson-Bjorck secant solves both, on a stepwise profile
from the cells of one first call on a uniform grid of its band.  The
module imports only core and errors from the package.  Agreement between
these and the secular roots is the main correctness evidence for the
solver.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import FieldConfig, Lorentzian, PiecewiseConstant, QuantumLabel, _binds
from .errors import ConfigError, OutsideAdmissibleBand, UnsupportedRegime

__all__ = [
    "grid_eigenvalues",
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
PHASE_GRID = 64  # points of the first phase call on a stepwise profile's band
OSCILLATOR_SPAN = 14.0  # half-width of the oscillator grid, in oscillator lengths
OSCILLATOR_POINTS = 129  # momentum cutoff pi (points - 1) / (2 span) = 14.4 / length: the span again
OSCILLATOR_MARGIN = 3.0  # oscillator lengths kept between the highest turning point and a wall
# levels n with turning point sqrt(2 n + 1) at most OSCILLATOR_SPAN - OSCILLATOR_MARGIN
OSCILLATOR_LEVELS = int(((OSCILLATOR_SPAN - OSCILLATOR_MARGIN) ** 2 - 1.0) / 2.0) + 1
GRID_MATRIX_CAP = 2**22  # elements of the dense (points - 2)^2 grid matrix: 32 MB of doubles
MARCH_SAMPLE_CAP = 2**22  # field samples of one smooth march, 2 steps + 1: 32 MB of doubles per array
# the field of one smooth march (see _sample_march), and the step times it:
# products of a few fields stay finite, the RK4 propagators' entries stay
# below 2**80, and so _chain's products stay finite
MARCH_FIELD_CAP = 2.0**500
MARCH_REACH_CAP = 2.0**19
# h |k + a| of a stepwise segment: with the coarse-step test's y >= -6,
# y = h^2 (w^2 - d^2) stays below 2**500, so _rk4_power's y y stays finite
POWER_REACH_CAP = 2.0**250
# crossings of one shot: landau.MAX_GRID_POINTS, the cap of the solver's levels
CROSSING_CAP = 1_000_000


# ---------------------------------------------------------------------------
# second-order grid route
# ---------------------------------------------------------------------------


def _check_count(count) -> None:
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
        raise ConfigError(f"count must be a positive integer, got {count!r}")


def grid_eigenvalues(u, x_min: float, x_max: float, points: int, count: int) -> np.ndarray:
    """Lowest count eigenvalues of -psi'' + u(x) psi with Dirichlet walls
    at x_min and x_max, from the sine discrete-variable representation
    (Colbert and Miller, J. Chem. Phys. 96, 1982 (1992)).

    With N = points - 1 intervals of length L / N, the interior points
    x_i = x_min + i L / N, i = 1 .. N - 1, carry H = T + diag(u(x_i)), where
    T = S diag((j pi / L)^2) S and S_ij = sqrt(2 / N) sin(pi i j / N) is the
    orthonormal DST-I matrix: T is exact on the box's sine modes, so the
    error falls off exponentially with the points per wavelength rather
    than as h^2.  u maps an x array to the potential samples.  Raises
    ConfigError for bounds that are not finite or not increasing, points
    that are not an integer of at least three or whose dense matrix would
    hold more than GRID_MATRIX_CAP elements, a count that is not a
    positive integer or exceeds the N - 1 interior points, and a u whose
    samples are not finite or not one per interior point (a scalar
    broadcasts); u is sampled before the matrix is built.
    """
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise ConfigError(f"grid bounds must be finite, got [{x_min}, {x_max}]")
    if x_max <= x_min:
        raise ConfigError("x_max must exceed x_min")
    if not isinstance(points, (int, np.integer)):
        raise ConfigError(f"points must be an integer, got {points!r}")
    if points < 3:
        raise ConfigError("need at least three grid points")
    if (int(points) - 2) ** 2 > GRID_MATRIX_CAP:
        raise ConfigError(f"points={points} needs a dense matrix of more than {GRID_MATRIX_CAP} elements")
    _check_count(count)
    n = int(points) - 1
    if count > n - 1:
        raise ConfigError(f"count={count} exceeds the {n - 1} interior grid points")
    width, i = x_max - x_min, np.arange(1, n)
    samples = np.asarray(u(x_min + i * (width / n)), dtype=float)
    if samples.shape not in ((), (n - 1,)):
        raise ConfigError(f"u gave samples of shape {samples.shape} for {n - 1} interior points")
    if not np.isfinite(samples).all():
        raise ConfigError("u gave a sample that is not finite")
    sine = math.sqrt(2.0 / n) * np.sin((math.pi / n) * np.outer(i, i))
    ham = (sine * (i * (math.pi / width)) ** 2) @ sine
    ham[np.diag_indices(n - 1)] += samples
    return np.linalg.eigvalsh(ham)[:count]


def proportional_oscillator_levels(alpha: float, beta: float, count: int) -> np.ndarray:
    """Grid eigenvalues of the oscillator the proportional problem reduces
    to; level n sits at 2 n beta sqrt(1 - alpha^2) in exact arithmetic.

    One sine DVR solve (see grid_eigenvalues) on OSCILLATOR_POINTS points
    spanning +/- OSCILLATOR_SPAN oscillator lengths.  Raises ConfigError
    for a non-finite alpha or beta, a beta that is not positive or a count
    that is not a positive integer, and UnsupportedRegime for |alpha| >= 1
    or a count above OSCILLATOR_LEVELS, whose highest level would come
    within OSCILLATOR_MARGIN oscillator lengths of a wall.  A beta whose
    scale^2 = beta^2 (1 - alpha^2) overflows or leaves the normal doubles
    raises ConfigError before any sample is taken; the window's reach^2,
    OSCILLATOR_SPAN^2 / scale, then stays normal too.
    """
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ConfigError(f"alpha and beta must be finite, got {alpha}, {beta}")
    if abs(alpha) >= 1.0:
        raise UnsupportedRegime(
            f"oscillator reduction requires |alpha| < 1, got {alpha}"
        )
    if beta <= 0:
        raise ConfigError("beta must be positive")
    _check_count(count)
    if count > OSCILLATOR_LEVELS:
        raise UnsupportedRegime(
            f"count={count} exceeds the {OSCILLATOR_LEVELS} levels the oscillator window resolves"
        )
    scale = beta * math.sqrt(1.0 - alpha * alpha)
    if not sys.float_info.min <= scale * scale < math.inf:  # then so is reach^2 = OSCILLATOR_SPAN^2 / scale
        raise ConfigError(f"beta={beta} puts the oscillator's samples out of the range of doubles")
    length = 1.0 / math.sqrt(scale)
    u = lambda x: scale**2 * x**2 - scale
    reach = OSCILLATOR_SPAN * length
    return grid_eigenvalues(u, -reach, reach, OSCILLATOR_POINTS, count)


# ---------------------------------------------------------------------------
# first-order shooting route
# ---------------------------------------------------------------------------


def _profile_window(profile):
    """(x_lo, x_hi, value at -inf, value at +inf) beyond which the profile
    is treated as constant; None profiles contribute a token window, and
    so does a step-free PiecewiseConstant, which is uniform: its one value
    holds on both sides, so a uniform vector potential a = c shoots as
    momentum k + c."""
    if profile is None or profile.is_zero():
        return -1.0, 1.0, 0.0, 0.0
    if isinstance(profile, PiecewiseConstant):
        b = profile.breakpoints or (-1.0, 1.0)
        v = profile.values
        return b[0], b[-1], v[0], v[-1]
    if isinstance(profile, Lorentzian):
        amp = abs(profile.strength)
        tol = SMOOTH_TAIL_TOL * max(amp, 1.0)
        xc = min(math.sqrt(max(amp / tol - 1.0, 1.0)), SMOOTH_WINDOW_CAP)
        return -xc, xc, 0.0, 0.0
    raise UnsupportedRegime(f"no shooting window rule for {type(profile).__name__}")


def _exteriors(config: FieldConfig, k: float, step: float):
    """(x_lo, x_hi, exteriors, (lo, hi)): the window beyond which the
    profiles are treated as constant, each exterior's (w, v) = (k + a, v),
    left then right, and the band lo < eps < hi where both decay,
    |eps - v| < |w|.  The entry check of both shooting calls: ConfigError
    for a k that is not finite or a step that is not finite and positive,
    then UnsupportedRegime for a profile with no window rule and for a
    nonzero w whose square underflows to zero, which leaves no seed a norm,
    or overflows, which leaves the march no finite w^2 - (eps - v)^2."""
    if not math.isfinite(k):
        raise ConfigError(f"k must be finite, got {k}")
    if not (step > 0.0 and math.isfinite(step)):
        raise ConfigError(f"step must be finite and positive, got {step}")
    ew = _profile_window(config.electric)
    mw = _profile_window(config.magnetic)
    exteriors = (k + mw[2], ew[2]), (k + mw[3], ew[3])
    for w, _ in exteriors:
        if w != 0.0 and w * w == 0.0:
            raise UnsupportedRegime(f"exterior k + a underflows when squared: k={k}, (k + a, v) = {exteriors}")
        if w * w == math.inf:
            raise UnsupportedRegime(f"exterior k + a overflows when squared: k={k}, (k + a, v) = {exteriors}")
    band = max(v - abs(w) for w, v in exteriors), min(v + abs(w) for w, v in exteriors)
    return min(ew[0], mw[0]), max(ew[1], mw[1]), exteriors, band


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
    The half-turns count the windings only where the one-step u and v are
    positive, as _shooter requires.  The decay branch is taken only where
    some s >= 0.
    Everything is taken at |h|, then v_n negated for h < 0: u_n and the
    half-turns are even and v_n odd in h, bit for bit.
    """
    h_abs = abs(h)
    y = h_abs * h_abs * s
    u = 1.0 + y * (0.5 + y / 24.0)
    v = h_abs * (1.0 + y / 6.0)
    sigma = np.sqrt(np.abs(s))
    vs = v * sigma
    osc = s < 0.0
    angle = n * np.arctan2(vs, u)
    if np.count_nonzero(osc) == osc.size:
        un, vn = np.cos(angle), np.sin(angle) / sigma
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            decay = np.expm1(n * np.log1p(-2.0 * vs / (u + vs)))  # r^n - 1
            un = np.where(osc, np.cos(angle), 1.0 + 0.5 * decay)
            vn = np.where(s == 0.0, n * h_abs, np.where(osc, np.sin(angle), -0.5 * decay) / sigma)
    return un, (vn if h >= 0.0 else -vn), np.floor(angle / math.pi)


def _segments(config, k, points, step):
    """(h, steps, w, v) of the constant segments between neighbouring
    points, marched in steps of h no longer than step; ConfigError where
    a segment's step count overflows a double."""
    out = []
    for a, b in zip(points[:-1], points[1:]):
        width = b - a
        if width == 0.0:
            continue
        count = abs(width) / step
        if not math.isfinite(count):
            raise ConfigError(f"step={step} is too small: the steps across {abs(width)} overflow a double")
        n = max(1, math.ceil(count))
        mid = 0.5 * (a + b)
        v = config.electric.evaluate(mid) if config.electric is not None else 0.0
        ay = config.magnetic.evaluate(mid) if config.magnetic is not None else 0.0
        out.append((width / n, n, k + ay, v))
    return out


def _advance_stepwise(segments, eps, psi, mirror):
    """March psi = (psi_1, psi_2) across constant segments, applying on
    each the power u I + v M of its one-step fourth-order matrix at its
    signed h as the one 2x2 matrix [[u + v w, -v d], [v d, u - v w]], and
    carry its angle phi = atan2(psi_2, psi_1) continuously from its first
    value.  Returns (psi, phi, phi_mirror), phi_mirror None but where
    mirror is set.

    On a segment the angle obeys phi' = d - w sin 2 phi.  Where s < 0 it
    turns one way, by the sign g = sign(d) sign(h): R^n, a rotation by
    n alpha (see _rk4_power), turns it by g (floor(n alpha / pi) pi + rem),
    rem in [0, pi) being the wrapped change in atan2, read in
    [-pi/2, 3pi/2) so that rounding cannot carry it across a half-turn.
    Where s >= 0 the change stays within (-pi, pi), the wrapped change.
    Both read the change in a window [c, c + 2 pi): c = g (floor + 1/2) pi
    - pi where s < 0, and -pi elsewhere.

    A nonzero mirror, +1 or -1, also carries the angle of the march of the
    segments' mirror images, each h negated, from the seed mirror
    (psi_2, psi_1): that march is mirror (psi_2, psi_1) at every segment,
    bit for bit, as negating h swaps the diagonal and negates v d and g.
    So its angle is atan2(mirror psi_1, mirror psi_2), read with g
    negated: phi_mirror.
    """
    p1, p2 = psi
    wrapped = phi = np.arctan2(p2, p1)
    phi_mirror = None
    if mirror:
        m1, m2 = (p1, p2) if mirror > 0.0 else (-p1, -p2)
        wrapped_mirror = phi_mirror = np.arctan2(m1, m2)
    for h, n, w, v in segments:
        d = eps - v
        s = w * w - d * d
        cu, cv, turns = _rk4_power(s, h, n)
        lead = np.where(s < 0.0, np.sign(d) * (turns + 0.5) * math.copysign(math.pi, h), 0.0)
        vw, vd = cv * w, cv * d
        p1, p2 = (cu + vw) * p1 - vd * p2, vd * p1 + (cu - vw) * p2
        scale = np.maximum(np.abs(p1), np.abs(p2))
        p1, p2 = p1 / scale, p2 / scale
        now = np.arctan2(p2, p1)
        low = lead - math.pi
        phi = phi + low + np.mod(now - wrapped - low, 2.0 * math.pi)
        wrapped = now
        if mirror:
            m1, m2 = (p1, p2) if mirror > 0.0 else (-p1, -p2)
            now = np.arctan2(m1, m2)
            low = -lead - math.pi
            phi_mirror = phi_mirror + low + np.mod(now - wrapped_mirror - low, 2.0 * math.pi)
            wrapped_mirror = now
    return (p1, p2), phi, phi_mirror


def _mirror_sign(mirrored, exteriors) -> float:
    """+1 or -1 where one side's march is the other's mirror image
    (mirrored, see _shooter) between exteriors (w, v) equal bit for bit,
    and 0 elsewhere.  Then the right seed is the left one swapped, times
    the sign (see _seed_vectors): -1 where w < 0, as (p - w, -delta) is
    -(w - p, delta)."""
    (w, v), other = exteriors
    if not mirrored or np.array((w, v)).tobytes() != np.array(other).tobytes():
        return 0.0
    return 1.0 if w >= 0.0 else -1.0


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


def _sample_march(config, k, x_from, x_to, step):
    """(h, w, v) of the smooth march from x_from to x_to in n = ceil(|span|
    / step) steps of h: w = k + a and v sampled at the 2 n + 1 half steps.
    A march runs from a window edge to the window's centre, which a smooth
    profile's window, (-1, 1) or wider, keeps at least 1 away.  Raises
    ConfigError, before any sample is built, where the 2 n + 1 samples
    would exceed MARCH_SAMPLE_CAP, and UnsupportedRegime, before any
    propagator is built, where the field f = max |w| + max |v| exceeds
    MARCH_FIELD_CAP or |h| f exceeds MARCH_REACH_CAP: 2 f bounds |w| and
    |eps - v|, to the window's tail tolerance, at every energy where both
    exteriors decay.
    """
    span = x_to - x_from
    if abs(span) / step > (MARCH_SAMPLE_CAP - 1) // 2:
        raise ConfigError(
            f"step={step} needs more than {MARCH_SAMPLE_CAP} field samples to march {abs(span)}"
        )
    n = max(1, math.ceil(abs(span) / step))
    h = span / n
    xs = x_from + 0.5 * h * np.arange(2 * n + 1)
    v = (
        np.asarray(config.electric.evaluate(xs), dtype=float)
        if config.electric is not None
        else np.zeros(len(xs))
    )
    ay = (
        np.asarray(config.magnetic.evaluate(xs), dtype=float)
        if config.magnetic is not None
        else np.zeros(len(xs))
    )
    w = k + ay
    field = float(np.max(np.abs(w))) + float(np.max(np.abs(v)))
    if not (field <= MARCH_FIELD_CAP and abs(h) * field <= MARCH_REACH_CAP):
        raise UnsupportedRegime(
            f"field {field} at step {abs(h)} can overflow the RK4 propagators: "
            f"the field must be at most {MARCH_FIELD_CAP} and step x field at most {MARCH_REACH_CAP}"
        )
    return h, w, v


def _advance_sampled(march, eps, psi):
    """Classical fourth-order march of psi = (psi_1, psi_2), arrays over
    the energies eps, through the fields march = (h, w, v) of _sample_march.

    The march is cut into blocks of PROPAGATOR_STEPS steps and the
    energies into chunks that keep a block within PROPAGATOR_BLOCK (step x
    energy) elements: each block's per-step propagators are built at once,
    multiplied into one 2x2 per energy, applied, and psi divided by its
    larger magnitude.  The blocks do not depend on the energies, so no
    energy's result depends on the others.
    """
    h, w, v = march
    n = len(v) // 2
    chunk = PROPAGATOR_BLOCK // min(n, PROPAGATOR_STEPS)
    out1, out2 = np.empty_like(eps), np.empty_like(eps)
    for e in range(0, len(eps), chunk):
        p1, p2 = psi[0][e : e + chunk], psi[1][e : e + chunk]
        for start in range(0, n, PROPAGATOR_STEPS):
            s = slice(2 * start, 2 * min(start + PROPAGATOR_STEPS, n) + 1)
            p = _chain(_rk4_propagators(w[None, s], eps[e : e + chunk, None] - v[s], h))
            p1, p2 = p[0, 0] * p1 + p[0, 1] * p2, p[1, 0] * p1 + p[1, 1] * p2
            scale = np.maximum(np.abs(p1), np.abs(p2))
            p1, p2 = p1 / scale, p2 / scale
        out1[e : e + chunk], out2[e : e + chunk] = p1, p2
    return out1, out2


def _shooter(config: FieldConfig, k: float, step: float, window):
    """Two-sided shooting as a function of an energy array: eps -> (det,
    theta), theta the shooting phase of a stepwise profile and None for a
    smooth one.  window is _exteriors(config, k, step), derived once by the
    caller.

    The coupled first-order system is integrated from each exterior window
    edge, seeded with the decaying exterior direction, to the window's
    centre, the match point; a step between equal values, which changes
    no field, moves it by widening the window.  det is the determinant of
    the two arriving directions, and theta = phi_L - phi_R the difference
    of their angles, each carried continuously from its seed's branch
    (see _seed_vectors, _advance_stepwise).  Either solution
    has (r^2 dphi/deps)' = r^2, so theta increases strictly with eps, and
    det = -|psi_L| |psi_R| sin theta: bound states are the crossings
    theta = n pi.  Both exteriors must decay or, at a band edge, be
    critical: |eps - v| <= |k + a|, where w^2 - d^2 rounds to no negative.
    A stepwise profile's segments and a smooth profile's field samples
    are laid out once, and a call keeps nothing for the next.  Where the
    band (lo, hi) is not empty, a step too coarse to count raises
    UnsupportedRegime: one whose one-step u or v (see _rk4_power) is not
    positive, for some segment or sample (h, w, v), at
    y = h^2 (w^2 - max((lo - v)^2, (hi - v)^2)), its least over the band as
    w^2 - (eps - v)^2 is concave in eps.  Such a step turns by pi/2 or
    more, and its windings cannot be counted.  So does a stepwise segment
    whose h |w| exceeds POWER_REACH_CAP, whose y y could overflow.

    A side that mirrors the other is not marched again.  The right
    march mirrors the left one where its segments are the left ones with
    h negated, or its field samples the left ones with the step negated,
    bit for bit: an even profile, matched at its centre.  Between
    exteriors equal bit for bit (see _mirror_sign) the right seed is then
    the left one swapped, negated too where k + a < 0 (see
    _seed_vectors), and a step -h acts as the step h with psi_1 and psi_2
    swapped: on a segment it takes the swapped diagonal and the negated
    v d, and _rk4_propagators' diag and skew are odd in h and ident and
    swap even.  So the right march is the left one swapped and signed at
    every step, bit for bit, and only the left side is marched;
    _advance_stepwise carries the right side's angle along.  det and theta
    keep the bits of the two-sided march in half its work.
    """
    x_lo, x_hi, ((w_left, v_minus), (w_right, v_plus)), (lo, hi) = window
    centre = 0.5 * (x_lo + x_hi)
    stepwise = _is_stepwise(config.electric) and _is_stepwise(config.magnetic)
    if stepwise:
        breaks: set[float] = set()
        for profile in (config.electric, config.magnetic):
            if isinstance(profile, PiecewiseConstant):
                breaks.update(profile.breakpoints)
        inner = sorted(b for b in breaks if x_lo < b < x_hi)
        left = _segments(config, k, [x_lo] + [b for b in inner if b <= centre] + [centre], step)
        right = _segments(config, k, [x_hi] + [b for b in reversed(inner) if b > centre] + [centre], step)
        fields = [(h, w, v) for h, _, w, v in left + right]
        mirrored = right == [(-h, n, w, v) for h, n, w, v in left]
    else:
        fields = left, right = [_sample_march(config, k, edge, centre, step) for edge in (x_lo, x_hi)]
        mirrored = right[0] == -left[0] and all(a.tobytes() == b.tobytes() for a, b in zip(left[1:], right[1:]))
    if lo < hi:
        for h, w, v in fields:
            if stepwise:  # floats: a square that overflows is inf, and refused
                d = max(abs(lo - v), abs(hi - v))
                y = h * h * (w * w - d * d)
            else:
                y = h * h * float(np.min(w * w - np.maximum((lo - v) ** 2, (hi - v) ** 2)))
            if not (1.0 + y * (0.5 + y / 24.0) > 0.0 and 1.0 + y / 6.0 > 0.0):
                raise UnsupportedRegime(f"step={step}: an RK4 step turns by pi/2 or more at some band energy, "
                                        "too coarse to count the windings; take a smaller step")
            if stepwise and abs(h * w) > POWER_REACH_CAP:
                raise UnsupportedRegime(f"step x |k + a| = {abs(h * w):.3g} can overflow an RK4 power: "
                                        f"it must be at most {POWER_REACH_CAP:.3g}")
    mirror = _mirror_sign(mirrored, window[2])

    def shoot(eps):
        def march(side, seed, sign=0.0):
            if stepwise:
                return _advance_stepwise(side, eps, seed, sign)
            return _advance_sampled(side, eps, seed), None, None

        psi_left, phi_left, phi_right = march(left, _seed_vectors(w_left, eps - v_minus, outward=False), mirror)
        if mirror:
            p1, p2 = psi_left
            psi_right = (p2, p1) if mirror > 0.0 else (-p2, -p1)
        else:
            psi_right, phi_right, _ = march(right, _seed_vectors(w_right, eps - v_plus, outward=True))
        det = psi_left[0] * psi_right[1] - psi_left[1] * psi_right[0]
        return det, (phi_left - phi_right if stepwise else None)

    return shoot


def dirac_shooting(config: FieldConfig, label: QuantumLabel, step: float = DEFAULT_STEP):
    """Matching determinant of two-sided shooting at label.epsilon.

    The coupled first-order system is integrated from each exterior window
    edge (seeded with the decaying exterior direction) to the window's
    centre (see _shooter); the determinant of the two arriving directions
    vanishes exactly at bound states.  label.epsilon may be an array of
    energies; the sign pattern of the result is what root bracketing
    consumes, the magnitude carries no meaning.

    Raises OutsideAdmissibleBand when some requested energy admits no
    decaying solution on one of the exteriors, and ConfigError for a
    non-finite k or energy, a step that is not finite and positive, or one
    so small that a stepwise segment's step count overflows a double, and
    UnsupportedRegime for a nonzero exterior k + a whose square underflows
    to zero or overflows (see _exteriors), and for a step too coarse to
    count or a stepwise march that could overflow (see _shooter).
    """
    epsilon = label.epsilon
    eps = np.atleast_1d(np.asarray(epsilon, dtype=float))
    window = _exteriors(config, label.k, step)
    _check_energies(eps, window[2])
    det = _shooter(config, label.k, step, window)(eps)[0]
    return det if np.ndim(epsilon) else float(det[0])


def _decays(eps, exteriors):
    """Where both exteriors (w, v) of _exteriors decay at the energies eps,
    w^2 - (eps - v)^2 > 0: a bool for one energy, a mask for an array."""
    left, right = (w * w - (eps - v) * (eps - v) > 0.0 for w, v in exteriors)
    return left & right


def _check_energies(eps: np.ndarray, exteriors) -> None:
    """dirac_shooting's checks of an energy array against the exteriors
    (w, v) of _exteriors: ConfigError for one that is not finite,
    OutsideAdmissibleBand where an exterior does not decay."""
    if not np.all(np.isfinite(eps)):
        raise ConfigError("epsilon must be finite")
    if not np.all(_decays(eps, exteriors)):
        raise OutsideAdmissibleBand(
            "no decaying exterior direction at some requested energy; "
            "bound states require |epsilon - v| < |k + a| on both tails"
        )


# ---------------------------------------------------------------------------
# roots: one Anderson-Bjorck secant on a stepwise profile's phase crossings
# and a smooth profile's scanned determinant
# ---------------------------------------------------------------------------


def _anderson_bjorck(values, a, b, fa, fb, target, tol) -> np.ndarray:
    """Solve values = target, values a function of an energy array, on the
    brackets [a, b] at once by the Anderson-Bjorck secant (Anderson and
    Bjorck, BIT 13, 253 (1973)); the one call of values that found the
    brackets counts as spent on them.

    fa and fb are values - target at a and b, of opposite signs.  Each
    call evaluates one point per live bracket: the secant point, clipped to
    [a + g, b - g] with g = 0.45 tol so that an end already on the root is
    passed and the bracket closes, or the midpoint where the clipped point
    is not strictly inside or calls have reached SECANT_CALLS.  It replaces
    the end whose value has its sign; an end kept twice in a row has its
    value scaled by m = 1 - f_new / f_replaced, or halved where m <= 0; and
    an exact zero closes the bracket.  A bracket is done, at 0.5 (a + b),
    once it is tol wide, holds no double inside, or has closed onto an
    exact zero.  A done bracket is recorded once and stays in the batch,
    frozen, until at most half the batch is open, when the batch is
    compacted: it is evaluated only inside itself, so the open brackets
    take the same steps and values the same calls.  With no bracket values
    is never called.
    """
    gap, calls = 0.45 * tol, 1
    target = np.zeros(np.shape(a)) + target
    roots = np.empty(target.size)
    todo, frozen, shut = np.arange(target.size), np.zeros(target.size, dtype=bool), 0
    # the ends the last step moved: b is kept twice where a moves after a
    # moved, and a where b moves after b moved; a step onto an exact zero
    # moves both ends and closes the bracket
    moved_a = moved_b = frozen
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            width = b - a
            done = (width <= tol) | ~(np.nextafter(a, b) < b)
            closed = np.count_nonzero(done)
            if closed > shut:  # brackets only narrow, so a closed one stays closed
                fresh = done > frozen
                roots[todo[fresh]] = 0.5 * (a + b)[fresh]
                frozen, shut = done, closed
                if 2 * closed >= todo.size:
                    keep = ~done
                    todo, frozen, target, a, b, width, fa, fb, moved_a, moved_b = (
                        v[keep] for v in (todo, done, target, a, b, width, fa, fb, moved_a, moved_b))
                    shut = 0
            if not todo.size:
                return roots
            if calls < SECANT_CALLS:
                x = a - fa * width / (fb - fa)
                x = np.minimum(np.maximum(x, a + gap), b - gap)
                inside = (a < x) & (x < b)
                if np.count_nonzero(inside) < inside.size:
                    x = np.where(inside, x, 0.5 * (a + b))
            else:
                x = 0.5 * (a + b)
            f = np.asarray(values(x), dtype=float) - target
            calls += 1
            same = (f < 0.0) == (fa < 0.0)
            zero = f == 0.0
            move_a, move_b = same | zero, ~same | zero
            # Anderson-Bjorck: an end kept twice in a row is scaled by
            # 1 - f_new / f_replaced, or halved where that is not positive
            m = 1.0 - f / np.where(move_a, fa, fb)
            m = np.where(m > 0.0, m, 0.5)
            fb = np.where(move_a & moved_a, m * fb, fb)
            fa = np.where(move_b & moved_b, m * fa, fa)
            a, fa = np.where(move_a, x, a), np.where(move_a, f, fa)
            b, fb = np.where(move_b, x, b), np.where(move_b, f, fb)
            moved_a, moved_b = move_a, move_b


def _phase_roots(theta, lo, hi, tol) -> list[float]:
    """Sorted crossings theta = n pi on the open band (lo, hi) of theta, a
    function of an energy array increasing in energy.

    The first call takes theta on PHASE_GRID points: the band's innermost
    doubles and uniform points between them.  The crossings are those
    strictly between theta at those two doubles, so none is missed and a
    zero of the determinant at a band edge is none; with none, that call is
    the only one.  Each crossing's bracket is the grid cell that holds its
    target: its right end is the first point where theta reaches the
    target, read off theta's running maximum so that rounding that is not
    monotone cannot lose or repeat a crossing, and an end on the target
    closes the bracket.  _anderson_bjorck solves the brackets on
    theta - n pi.  UnsupportedRegime, before any target is built, for
    more than CROSSING_CAP crossings, and where a root is not above the
    one before it: the levels are not distinct doubles.
    """
    ends = np.nextafter(lo, hi), np.nextafter(hi, lo)
    if not lo < ends[0] < ends[1]:
        return []
    grid = np.linspace(*ends, PHASE_GRID)
    th = theta(grid)
    first, stop = math.floor(th[0] / math.pi) + 1, math.ceil(th[-1] / math.pi)
    if stop - first > CROSSING_CAP:
        raise UnsupportedRegime(f"{stop - first} levels in one shot, more than the {CROSSING_CAP} it takes")
    if stop <= first:
        return []
    target = math.pi * np.arange(first, stop)
    j = np.searchsorted(np.maximum.accumulate(th), target)
    a, b, fa, fb = grid[j - 1], grid[j], th[j - 1] - target, th[j] - target
    a = np.where(fb == 0.0, b, a)  # an exact zero closes the bracket
    roots = _anderson_bjorck(theta, a, b, fa, fb, target, tol)
    tied = np.count_nonzero(~(roots[1:] > roots[:-1]))
    if tied:
        raise UnsupportedRegime(f"{tied} level(s) at or below the level before them: levels are not distinct doubles")
    return roots.tolist()


def _decaying_band(lo, hi, exteriors):
    """The band (lo, hi) narrowed so that both exteriors (w, v) decay (see
    _decays), as dirac_shooting requires, at its innermost doubles.  They
    do at the band's own innermost doubles unless an edge
    lies at or near zero: there the doubles of eps are finer than those of
    eps - v, and the innermost ones round to a critical exterior, whose
    phase is the edge's own and can round past its n pi into a spurious
    crossing.  Such an edge moves, by bisection, to the last energy where
    some exterior does not decay.  A band whose midpoint does not decay is
    empty."""
    mid = 0.5 * (lo + hi)
    if not (lo < mid < hi and _decays(mid, exteriors)):
        return lo, lo

    def narrowed(edge):
        if _decays(np.nextafter(edge, mid), exteriors):
            return edge
        a, b = np.nextafter(edge, mid), mid  # a does not decay, b does
        while True:
            m = 0.5 * (a + b)
            if not (min(a, b) < m < max(a, b)):
                return float(a)
            a, b = (a, m) if _decays(m, exteriors) else (m, b)

    return narrowed(lo), narrowed(hi)


def _scan_grid(lo, hi, scan_points) -> np.ndarray:
    """The scan_points uniform interior points of the band (lo, hi),
    clipped to its innermost doubles, so that none lies on an edge."""
    grid = np.linspace(lo, hi, scan_points + 2)[1:-1]
    return np.clip(grid, np.nextafter(lo, hi), np.nextafter(hi, lo))


def _scan_roots(values, lo, hi, scan_points, tol) -> list[float]:
    """Sorted roots of values on an open band (lo, hi) holding a double: the
    scan points where values is exactly zero, and the sign-changing cells
    of _scan_grid, solved together by _anderson_bjorck."""
    grid = _scan_grid(lo, hi, scan_points)
    vals = np.asarray(values(grid), dtype=float)
    sign = np.sign(vals)
    i = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    bracketed = _anderson_bjorck(values, grid[i], grid[i + 1], vals[i], vals[i + 1], 0.0, tol)
    # a scan point on a root counts once, also where a narrow band repeats points
    fresh = np.concatenate([[True], grid[1:] > grid[:-1]])
    return np.sort(np.concatenate([bracketed, grid[(sign == 0) & fresh]])).tolist()


def shooting_bound_states(config: FieldConfig, k: float, scan_points: int = 2000, tol: float = 1e-10,
                          step: float = DEFAULT_STEP) -> list[float]:
    """Bound-state energies of a field configuration by pure shooting, on
    the band where both exteriors decay, each solved by _anderson_bjorck to
    bracket width tol, an exact zero or adjacent doubles.  The two sides
    are matched at the centre of the profiles' window (see _shooter).

    A stepwise profile (electric, magnetic or both piecewise constant) has
    them as the crossings theta = n pi of its shooting phase (see _shooter),
    counted by _phase_roots on the band's decaying part (see
    _decaying_band), so none is lost at a band edge and none is made
    there.  A smooth profile has them as the zeros of dirac_shooting's determinant that
    _scan_roots brackets on scan_points uniform points, however near an
    edge; its levels can crowd into a band edge, where no finite scan
    completes them.  A band that holds no double has none; otherwise the
    shooter is built once, before the scan, and each determinant call
    checks its energies as dirac_shooting does.  Raises ConfigError for a
    scan_points that is not an integer of at least two, a tol that is not
    finite and positive, or a k or step that dirac_shooting rejects, and
    UnsupportedRegime where dirac_shooting refuses the profile, k or step
    (see _exteriors and _shooter), where a stepwise profile's levels are
    not distinct doubles, and where a step profile binds a level by the
    weak-coupling rule but its phase crosses no n pi: the level lies
    within a double of the band edge, as find_roots refuses it too.  The
    rule (core._binds) serves electric, magnetic and joint steps alike,
    and is asked twice: of the profile itself, and of the field the march
    sees, each magnetic value replaced by the rounded k + a at k = 0.  A
    level binds if either says so, so a step that rounds away and one
    that only the exact field holds are both refused.
    """
    if not isinstance(scan_points, (int, np.integer)) or scan_points < 2:
        raise ConfigError(f"scan_points must be an integer of at least 2, got {scan_points!r}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigError(f"tol must be finite and positive, got {tol}")
    window = _exteriors(config, k, step)
    _, _, exteriors, (lo, hi) = window
    if _is_stepwise(config.electric) and _is_stepwise(config.magnetic):
        shoot = _shooter(config, k, step, window)
        roots = _phase_roots(lambda eps: shoot(eps)[1], *_decaying_band(lo, hi, exteriors), tol)
        if not roots and lo < hi:  # an empty band binds nothing; a band made the shooter refuse an infinite k + a
            electric, magnetic = (p if isinstance(p, PiecewiseConstant) else None
                                  for p in (config.electric, config.magnetic))
            # the profile, and the field the march sees: each k + a rounded, at k = 0
            binds = _binds(electric, magnetic, k) or magnetic is not None and _binds(
                electric, PiecewiseConstant(magnetic.breakpoints, tuple(k + a for a in magnetic.values)), 0.0)
            if binds:
                raise UnsupportedRegime(f"the profile binds a level at k={k} by the weak-coupling rule, "
                                        "but the shot resolves none: too weakly bound to resolve")
        return roots
    if not np.nextafter(lo, hi) < hi:
        return []
    shoot = _shooter(config, k, step, window)

    def det(eps):
        _check_energies(eps, exteriors)
        return shoot(eps)[0]

    return _scan_roots(det, lo, hi, scan_points, tol)
