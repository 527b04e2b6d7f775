"""Bound-state assembly: wavefunctions, densities, and exact integrals.

At a root of the secular function the rotated first component is carried
across the steps of the well by the transfer route's own kernel,
matching._carry: the exterior solutions that decay on either side are
continued through every step and region and joined where they agree
best, and each region's two exponential coefficients are read off the
carried pairs at the steps where they are largest, their anchors.  The
second rotated component follows algebraically from the first-order
system, the overall phase is fixed so the two components are complex
conjugates, and norms and overlaps are evaluated in closed form from the
exponential pieces rather than by quadrature.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    PiecewiseConstant,
    QuantumLabel,
    effective_energy,
    effective_potential_electric,
    evaluate_potential,
    square_well,
)
from .errors import (
    BrokenPTSymmetry,
    ConfigError,
    DegenerateMomentum,
    MismatchedMomentum,
    NonDecayingExterior,
    NotAnEigenvalue,
    NotConjugatePair,
    OutsideAdmissibleBand,
    UnsupportedRegime,
)
from .matching import _carry
from .spectrum import MAX_GRID_POINTS

__all__ = [
    "PiecewiseExp",
    "BoundState",
    "DensityProfile",
    "ResidualReport",
    "assemble_state",
    "assemble_square_well_state",
    "partner_component",
    "fix_phase",
    "with_phase",
    "probability_density",
    "current_density",
    "pt_eigenvalue",
    "inner_product",
    "gram_matrix",
    "product_integral",
    "equation_residuals",
    "second_order_residuals",
    "state_to_csv",
    "state_to_json",
]

NULLSPACE_TOL = 1e-6
CONJUGATE_TOL = 1e-8
PT_TOL = 1e-6
GRAM_BLOCK = 256  # gram_matrix rows per block: 4 * 256 * N term pairs, 23 MB at N = 1425
CSV_BLOCK = 4096  # values state_to_csv formats at once: larger blocks cost memory and gain no speed


class PiecewiseExp:
    """Piecewise sum of two exponentials, one piece per region of a step profile.

    Region i lies between steps[i-1] and steps[i] (the exteriors extend to
    -inf and +inf), and there the function is a[i] exp(g[i] (x - xa)) +
    b[i] exp(-g[i] (x - xb)), each term anchored where it is largest: xa
    is the region's right step where Re g > 0 (the a term grows), every
    other anchor the left step, the first step on the left exterior.
    Each exterior keeps only its decaying term: Re g > 0 at both ends,
    b = 0 on the left and a = 0 on the right, otherwise
    NonDecayingExterior.  That is what makes the integrals over the line
    exact.  Steps must be finite and increasing, g, a, b finite and Re g
    >= 0 inside, where a b term would otherwise grow away from its anchor.
    """

    def __init__(self, steps, g, a, b):
        self.steps = steps = tuple(map(float, steps))
        self.table = np.array((g, a, b), dtype=complex)
        self.g, self.a, self.b = self.table
        if not (steps and self.table.shape == (3, len(steps) + 1)):
            raise ConfigError("need at least one step and one region more than steps")
        if not (all(map(math.isfinite, steps)) and all(x < y for x, y in zip(steps, steps[1:]))):
            raise ConfigError(f"steps must be finite and strictly increasing, got {steps}")
        if not np.isfinite(self.table).all():
            raise ConfigError("rates and coefficients must be finite")
        if (self.g[1:-1].real < 0).any():
            raise ConfigError(f"inner rates must have Re g >= 0, got {self.g[1:-1]}")
        decaying = min(self.g[0].real, self.g[-1].real) > 0.0
        if not (decaying and self.b[0] == 0 and self.a[-1] == 0):
            raise NonDecayingExterior("each exterior must keep one decaying term only")

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        i = np.searchsorted(self.steps, xs, side="right")
        out = np.empty(xs.shape, dtype=complex)
        last = len(self.steps)
        for r in range(last + 1):
            m = i == r
            g, a, b = self.table[:, r]
            gt = g * (xs[m] - self.steps[max(r - 1, 0)])
            if r == last:  # each exterior skips its dropped term, which would overflow
                out[m] = b * np.exp(-gt)
            elif g.real > 0:  # a grows across the region: anchored at its right step
                out[m] = a * np.exp(g * (xs[m] - self.steps[r])) + (b * np.exp(-gt) if r else 0.0)
            else:  # both terms anchored at the left step, where t = 0
                e = np.exp(gt)
                out[m] = a * e + b / e
        return out if np.ndim(x) else complex(out)

    def derivative(self) -> "PiecewiseExp":
        return PiecewiseExp(self.steps, self.g, self.g * self.a, -self.g * self.b)

    def conjugate(self) -> "PiecewiseExp":
        return PiecewiseExp(self.steps, self.g.conj(), self.a.conj(), self.b.conj())

    def scaled(self, factor: complex) -> "PiecewiseExp":
        return PiecewiseExp(self.steps, self.g, factor * self.a, factor * self.b)


def _span(rate, width: float, lead=None):
    """Integral of exp(lead + rate t) over 0 <= t <= width, elementwise; given a lead, from its larger end."""
    z = rate * width
    if lead is not None:
        lead, z = np.where(z.real > 0, lead + z, lead), np.where(z.real > 0, -z, z)
    out = np.expm1(z)
    np.divide(out, z, out=out, where=z != 0)
    out += z == 0  # expm1(0) = 0 was left in place; the limit is 1
    return width * out if lead is None else width * out * np.exp(lead)


def _overlaps(steps, left, right) -> np.ndarray:
    """(N, M) matrix of sum_c integral f_c(x) h_c(x) dx over the line, for
    N groups (f_1, ..., f_C) in left and M groups (h_1, ..., h_C) in right
    of waves on steps; the waves of a group share their rates.  Region by
    region, (2N, 2M) closed-form term-pair integrals sum into the matrix.
    """
    n, m = len(left), len(right)
    widths = np.diff((steps[0], *steps, steps[-1]))  # 0 on both exteriors
    rl, cl, ll = _terms(left, widths)
    rr, cr, lr = _terms(right, widths)
    grows = ll.any(axis=1) | lr.any(axis=1)  # the regions where some a term grows
    out = np.zeros((n, m), dtype=complex)
    last = len(steps)
    for r in range(last + 1):
        if r == 0:  # a terms only, over t <= 0
            out += (cl[r, :n] @ cr[r, :m].T) / (rl[r, :n, None] + rr[r, :m])
        elif r == last:  # b terms only, over t >= 0
            out -= (cl[r, n:] @ cr[r, m:].T) / (rl[r, n:, None] + rr[r, m:])
        else:
            lead = ll[r, :, None] + lr[r] if grows[r] else None
            pairs = (cl[r] @ cr[r].T) * _span(rl[r, :, None] + rr[r], widths[r], lead)
            out += pairs.reshape(2, n, 2, m).sum(axis=(0, 2))
    return out


def _terms(groups, widths):
    """Rates and left-step logs (regions, 2N) and coefficients (regions, 2N,
    C) of N groups of C waves: the a terms with rate g, then the b terms
    with rate -g; a growing a term, anchored at the right step, logs -g w."""
    table = np.array([[w.table for w in ws] for ws in groups]).transpose(2, 3, 0, 1)
    g = table[0, :, :, 0]
    lead = np.where(g.real > 0, -g * widths[:, None], 0.0)
    return tuple(np.concatenate(p, axis=1) for p in ((g, -g), (table[1], table[2]), (lead, 0 * lead)))


def product_integral(f: PiecewiseExp, g: PiecewiseExp) -> complex:
    """Exact integral of f(x) g(x) over the whole line (no conjugation).

    Both waves must lie on the same steps; on each region every pair of
    terms integrates to a closed-form exponential integral.
    """
    if f.steps != g.steps:
        raise UnsupportedRegime("exact integrals need waves on the same steps")
    return complex(_overlaps(f.steps, [[f]], [[g]])[0, 0])


@dataclass(frozen=True, eq=False)
class BoundState:
    """One normalized bound state sampled on a symmetric grid.

    psi1 and psi2 are the rotated spinor components; after phase fixing
    they satisfy psi2 = conj(psi1), so the physical (real) components are
    (2 Re psi1, -2 Im psi1).  The exact region tables of both waves are
    kept alongside the samples so integrals and residuals stay closed-form.
    The samples are read-only, so the CSV text kept on a state once
    written (see state_to_csv) cannot go stale; a writeable array passed
    in may be the caller's, and the state keeps a copy of it instead.
    """

    label: QuantumLabel
    norm: float
    x: np.ndarray = field(repr=False)
    psi1: np.ndarray = field(repr=False)
    psi2: np.ndarray = field(repr=False)
    wave1: PiecewiseExp = field(repr=False)
    wave2: PiecewiseExp = field(repr=False)
    potential: PiecewiseConstant = field(repr=False)

    def __post_init__(self) -> None:
        for name in ("x", "psi1", "psi2"):
            samples = getattr(self, name)
            if samples.flags.writeable:
                samples = samples.copy()
                samples.flags.writeable = False
                object.__setattr__(self, name, samples)

    @cached_property
    def _csv(self) -> str:  # see state_to_csv
        from ._floatfmt import format_rows

        table, rows = np.column_stack(_columns(self)), CSV_BLOCK // len(COLUMNS)
        blocks = (format_rows(table[i : i + rows]) for i in range(0, len(table), rows))
        return ",".join(COLUMNS) + "\n" + "".join(blocks)


@dataclass(frozen=True)
class DensityProfile:
    """Probability and current densities sampled on the state grid."""

    x: np.ndarray
    rho: np.ndarray
    j_x: np.ndarray
    j_y: np.ndarray


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise residuals of the two rows of the first-order system."""

    x: np.ndarray
    residual_1: np.ndarray
    residual_2: np.ndarray

    @property
    def max_abs(self) -> float:
        return float(max(np.abs(r).max(initial=0.0) for r in (self.residual_1, self.residual_2)))


def partner_component(
    wave1: PiecewiseExp, label: QuantumLabel, potential: PiecewiseConstant
) -> PiecewiseExp:
    """Second rotated component (w' + i (eps - v) w) / k, region by region.

    The construction divides by the transverse momentum, so k = 0 has no
    partner this way (the two rotated components decouple there).
    """
    if label.k == 0:
        raise DegenerateMomentum("partner construction requires k != 0")
    delta = label.epsilon - np.asarray(potential.values)
    g = wave1.g
    return PiecewiseExp(
        wave1.steps, g, (g + 1j * delta) * wave1.a / label.k, (1j * delta - g) * wave1.b / label.k
    )


def _conjugation_phase(n1: float, n2: float, cross: complex) -> float:
    """Angle theta such that after multiplying both components by
    exp(i theta) the second equals the conjugate of the first, from their
    norms n1, n2 and their bilinear cross integral."""
    if n1 <= 0 or n2 <= 0:
        raise NotConjugatePair("component norms must be positive")
    # Cauchy-Schwarz saturation <=> psi2 is a multiple of conj(psi1)
    collinearity = (abs(cross) / n1) * (abs(cross) / n2)  # squares overflow past decay lengths of 1e154
    if abs(collinearity - 1.0) > CONJUGATE_TOL:
        raise NotConjugatePair(
            f"components are not conjugate-collinear (defect {abs(collinearity - 1.0):.3e})"
        )
    eta = cross / n1
    if abs(abs(eta) - 1.0) > CONJUGATE_TOL:
        raise NotConjugatePair(
            f"conjugation ratio has modulus {abs(eta):.12f}, expected 1"
        )
    return -0.5 * cmath.phase(eta)


def _canonical_sign(v: complex) -> float:
    """+1 or -1, whichever makes v positive: its real part decides, then its
    imaginary part; a part within 1e-12 of |v| counts as zero."""
    cut = 1e-12 * abs(v)
    if abs(v.real) > cut:
        return 1.0 if v.real > 0 else -1.0
    if abs(v.imag) > cut:
        return 1.0 if v.imag > 0 else -1.0
    return 1.0


def _sample_state(
    label: QuantumLabel, wave1: PiecewiseExp, wave2: PiecewiseExp, potential: PiecewiseConstant, x: np.ndarray
) -> BoundState:
    norm = 4.0 * product_integral(wave1.conjugate(), wave1).real
    psi1, psi2 = wave1(x), wave2(x)
    psi1.flags.writeable = psi2.flags.writeable = False  # fresh: the state need not copy them
    return BoundState(label, norm, x, psi1, psi2, wave1, wave2, potential)


def _canonical_gauge(
    wave1: PiecewiseExp, wave2: PiecewiseExp
) -> tuple[PiecewiseExp, PiecewiseExp]:
    """Both components times one factor: afterwards wave2 = conj(wave1),
    wave1 is positive at the origin (real part first, then imaginary) and
    the probability density integrates to one."""
    # both norms and the cross integral: the diagonal of one overlap matrix
    left = [[wave1.conjugate()], [wave2.conjugate()], [wave1]]
    n1, n2, cross = np.diagonal(_overlaps(wave1.steps, left, [[wave1], [wave2], [wave2]]))
    factor = cmath.exp(1j * _conjugation_phase(n1.real, n2.real, complex(cross)))
    factor *= _canonical_sign(factor * wave1(0.0))
    factor /= math.sqrt(4.0 * n1.real)
    return wave1.scaled(factor), wave2.scaled(factor)


def fix_phase(state: BoundState) -> BoundState:
    """Canonical-gauge copy of a state: psi2 = conj(psi1), a positive value
    (real part first, then imaginary) at the origin and unit norm.
    Idempotent."""
    w1, w2 = _canonical_gauge(state.wave1, state.wave2)
    return _sample_state(state.label, w1, w2, state.potential, state.x)


def with_phase(state: BoundState, theta: float) -> BoundState:
    """Copy of a state with both components multiplied by exp(i theta)."""
    factor = cmath.exp(1j * theta)
    w1, w2 = state.wave1.scaled(factor), state.wave2.scaled(factor)
    return _sample_state(state.label, w1, w2, state.potential, state.x)


def _carried_wave(potential: PiecewiseConstant, label: QuantumLabel) -> PiecewiseExp:
    """Rotated first component at a root, from the walks of
    matching._carry out of the decaying exteriors, (psi, psi') = (1, p)
    at the first step and (1, -p) at the last; a root's rounding grows
    along a walk.  Pairs at the steps before a join region r come from
    the left walk, the others from the right walk, scaled onto it by
    their larger left-step coefficient (psi +/- psi'/g) / 2 at r.  r is
    an exterior, so the wave is one walk and one solution, when that
    walk's growing share there is within NULLSPACE_TOL; else, for a
    state between barriers, r is the region whose coefficients are most
    nearly parallel in the two walks.  Each coefficient is read and kept
    at its anchor: each b at its region's left step, and where Re g > 0
    each a at the right step, where its term is largest.  Raises
    OutsideAdmissibleBand, before any walk, unless both exteriors decay
    (Re g > 0, so not NaN) and no region has g = 0, which the reads
    divide by; NotAnEigenvalue when the walks differ at r by more than
    NULLSPACE_TOL.
    """
    k, eps = label.k, label.epsilon
    steps, values = potential.breakpoints, np.asarray(potential.values)
    with np.errstate(over="ignore", invalid="ignore"):  # |eps - V| past 1e154: g^2 = -inf, not decaying
        g = np.sqrt((k * k - (eps - values) ** 2).astype(complex))
    if not (g[0].real > 0.0 < g[-1].real and np.all(g != 0)):
        raise OutsideAdmissibleBand(
            f"decaying exteriors need |epsilon - V| < |k|, and no region |epsilon - V| = |k|: eps={eps}, k={k}")
    jumps = 1j * np.diff(values)

    def walk(direction):  # rows a, b at each region's left step; a before, b after each step; logs
        seed = g[0].real if direction > 0 else -g[-1].real
        psi, dpsi, log = map(np.array, zip(*_carry(potential, k, eps, 1.0, seed, direction)[0]))
        left = 0.5 * np.array((psi + dpsi / g, psi - dpsi / g))
        right = 0.5 * (psi[1:] + (dpsi[1:] - jumps * psi[1:]) / g[:-1])
        return left, np.array((np.where(g[:-1].real > 0, right, left[0, :-1]), left[1, 1:])), log

    (lf, sf, logf), (lb, sb, logb) = walk(1), walk(-1)
    u, v = lf / np.abs(lf).sum(0), lb / np.abs(lb).sum(0)
    mismatch = np.abs(u[0] * v[1] - u[1] * v[0])
    r = len(mismatch) - 1 if mismatch[-1] <= mismatch[0] else 0  # one walk
    r = r if mismatch[r] <= NULLSPACE_TOL else int(np.argmin(mismatch))
    if not mismatch[r] <= NULLSPACE_TOL:
        raise NotAnEigenvalue(
            f"no matching nullspace at epsilon={label.epsilon!r} (walks differ by {mismatch[r]:.3e} at best)"
        )
    big = np.argmax(np.abs(lb[:, r]))
    a, b = np.concatenate((sf[:, :r] * np.exp(logf[1 : r + 1] - logf[r]),
                           sb[:, r:] * (lf[big, r] / lb[big, r] * np.exp(logb[r + 1 :] - logb[r]))), axis=1)
    return PiecewiseExp(steps, g, (*a, 0.0), (0.0, *b))


def assemble_state(potential: PiecewiseConstant, label: QuantumLabel, points: int = 4001) -> BoundState:
    """Build the normalized bound state of a step profile at a secular root.

    The rotated first component is carried across every step from the
    decaying exteriors (see _carried_wave).  Raises NotAnEigenvalue when
    its walks disagree by more than 1e-6, and, before anything is
    carried, ConfigError for points that are not an integer (a bool is
    not), fewer than 3 or, once an even count is rounded up to odd, more
    than MAX_GRID_POINTS, or for a potential that is not a
    PiecewiseConstant with a step, and OutsideAdmissibleBand for an
    exterior that does not decay or a region where |epsilon - V| = |k|.
    The state is sampled on a grid symmetric about the origin that
    reaches 12 decay lengths past both outer steps, phase-fixed,
    sign-canonical, and normalized so the probability density integrates
    to one (closed form, not quadrature).
    """
    if not isinstance(points, numbers.Integral) or isinstance(points, bool):
        raise ConfigError(f"points must be an integer, got {points!r}")
    if points < 3:
        raise ConfigError(f"a state needs at least 3 points, got {points}")
    points = int(points) | 1  # symmetric grid wants an odd count
    if points > MAX_GRID_POINTS:
        raise ConfigError(
            f"a state takes at most {MAX_GRID_POINTS} points, got {points} once rounded up to odd")
    if not (isinstance(potential, PiecewiseConstant) and potential.breakpoints):
        raise ConfigError(f"states need a piecewise-constant profile with a step, got {potential!r}")
    wave1 = _carried_wave(potential, label)
    wave1, wave2 = _canonical_gauge(wave1, partner_component(wave1, label, potential))

    steps = potential.breakpoints
    extent = max(12.0 / wave1.g[0].real - steps[0], steps[-1] + 12.0 / wave1.g[-1].real)
    half = (points - 1) // 2
    pos = np.linspace(0.0, extent, half + 1)
    x = np.concatenate([-pos[::-1][:-1], pos])
    return _sample_state(label, wave1, wave2, potential, x)


def assemble_square_well_state(
    label: QuantumLabel, v0: float, half_width: float = 1.0, points: int = 4001
) -> BoundState:
    """assemble_state of the square well of depth v0 and half-width half_width."""
    return assemble_state(square_well(v0, half_width), label, points)


def probability_density(state: BoundState) -> DensityProfile:
    """rho = 4 |psi1|^2, the squared real spinor; integrates to one for a
    normalized state.  Phase-invariant."""
    rho = 4.0 * (state.psi1.real**2 + state.psi1.imag**2)
    zeros = np.zeros_like(rho)
    return DensityProfile(x=state.x, rho=rho, j_x=zeros, j_y=zeros)


def current_density(state: BoundState) -> DensityProfile:
    """Current of the canonical (phase-fixed) representation: j_x vanishes
    identically for a bound state and j_y = -8 Re(psi1) Im(psi1), which is
    bounded by rho pointwise."""
    rho = 4.0 * (state.psi1.real**2 + state.psi1.imag**2)
    with np.errstate(invalid="ignore"):  # an infinite part times a zero one is NaN
        j_y = -8.0 * state.psi1.real * state.psi1.imag
    return DensityProfile(x=state.x, rho=rho, j_x=np.zeros_like(j_y), j_y=j_y)


def pt_eigenvalue(state: BoundState) -> complex:
    """Eigenvalue lambda of the parity-conjugation map conj(psi1(-x)) =
    lambda psi1(x); +/-i for the square-well states, alternating with the
    excitation index.  Raises BrokenPTSymmetry when no lambda fits to
    PT_TOL, and for a null state or one with a non-finite sample."""
    flipped = np.conjugate(state.psi1[::-1])
    denom = np.vdot(state.psi1, state.psi1)  # NaN, with no warning, for a non-finite sample
    if not 0.0 < denom.real < math.inf:
        raise BrokenPTSymmetry(f"cannot fit a PT eigenvalue to a state of squared norm {denom.real}")
    lam = np.vdot(state.psi1, flipped) / denom
    residual = np.linalg.norm(flipped - lam * state.psi1) / np.linalg.norm(flipped)
    if residual > PT_TOL:
        raise BrokenPTSymmetry(
            f"reflection-conjugation misfit {residual:.3e} exceeds {PT_TOL:g}"
        )
    return complex(lam)


def _gram(left: list[BoundState], right: list[BoundState]) -> np.ndarray:
    """Bilinear overlaps of every state of left with every state of right."""
    momenta = sorted({s.label.k for s in left + right})
    if len(momenta) > 1:
        raise MismatchedMomentum(f"overlap requires equal transverse momenta, got {momenta}")
    if len({s.potential for s in left + right}) > 1:
        raise UnsupportedRegime("overlaps need states of one potential")
    steps = left[0].potential.breakpoints
    return 2.0 * _overlaps(steps, [(s.wave2, s.wave1) for s in left], [(s.wave1, s.wave2) for s in right])


def inner_product(a: BoundState, b: BoundState) -> complex:
    """Bilinear overlap 2 * integral(psi2_a psi1_b + psi1_a psi2_b) dx,
    evaluated exactly; square-well states at the same k are orthonormal
    under it.  States at different k never mix (plane-wave factor), and
    states of different potentials raise UnsupportedRegime."""
    return complex(_gram([a], [b])[0, 0])


def gram_matrix(states: list[BoundState]) -> np.ndarray:
    """Matrix of inner_product over every pair of states, built GRAM_BLOCK
    rows at a time."""
    rows = [_gram(states[i : i + GRAM_BLOCK], states) for i in range(0, len(states), GRAM_BLOCK)]
    return np.concatenate(rows) if rows else np.zeros((0, 0), dtype=complex)


def _stencil_points(state: BoundState, stencil):
    """(x, psi1, psi2, d1, d2) at the grid points x[2:-2] that lie more than
    five spacings h from every step: the components there and their grid
    derivatives stencil(psi, h), a five-point stencil centred on x[2:-2]."""
    x, waves = state.x, (state.psi1, state.psi2)
    h = x[1] - x[0]
    xin = x[2:-2]
    keep = np.ones(len(xin), dtype=bool)
    for b in state.potential.breakpoints:
        keep &= np.abs(xin - b) > 5.0 * h
    return xin[keep], *(w[2:-2][keep] for w in waves), *(stencil(w, h)[keep] for w in waves)


def equation_residuals(state: BoundState, grid_derivatives: bool = False) -> ResidualReport:
    """Residuals of the coupled first-order system along the grid.

    With exact derivatives (default) the residual is zero to rounding.
    With grid_derivatives=True a fourth-order stencil replaces the exact
    derivative and points within five spacings of a potential step (where
    the derivative jumps) or of the grid ends are excluded.
    """
    k = state.label.k
    eps = state.label.epsilon
    if grid_derivatives:
        x_eval, psi1, psi2, d1, d2 = _stencil_points(
            state, lambda w, h: (-w[4:] + 8 * w[3:-1] - 8 * w[1:-3] + w[:-4]) / (12 * h)
        )
    else:
        x_eval, psi1, psi2 = state.x, state.psi1, state.psi2
        d1 = state.wave1.derivative()(x_eval)
        d2 = state.wave2.derivative()(x_eval)
    delta = eps - evaluate_potential(state.potential, x_eval)
    r1 = d1 + 1j * delta * psi1 - k * psi2
    r2 = d2 - 1j * delta * psi2 - k * psi1
    return ResidualReport(x=x_eval, residual_1=r1, residual_2=r2)


def second_order_residuals(state: BoundState, grid_derivatives: bool = False) -> ResidualReport:
    """Residuals of the decoupled second-order equation for both rotated
    components: -psi'' + (i v' + 2 eps v - v^2) psi - (eps^2 - k^2) psi.

    Points sitting on a potential step are always excluded (the equation
    holds between steps; at a step the derivative term is distributional).
    With grid_derivatives=True a fourth-order stencil replaces the exact
    second derivative and the exclusion widens to five grid spacings, as
    in equation_residuals.
    """
    eps = state.label.epsilon
    if grid_derivatives:
        x_eval, w1, w2, d1, d2 = _stencil_points(
            state,
            lambda w, h: (-w[4:] + 16 * w[3:-1] - 30 * w[2:-2] + 16 * w[1:-3] - w[:-4]) / (12 * h * h),
        )
    else:
        x = state.x
        keep = np.ones(len(x), dtype=bool)
        for b in state.potential.breakpoints:
            keep &= x != b
        x_eval, w1, w2 = x[keep], state.psi1[keep], state.psi2[keep]
        dd1 = state.wave1.derivative().derivative()
        dd2 = state.wave2.derivative().derivative()
        d1, d2 = dd1(x_eval), dd2(x_eval)
    u_eff = effective_potential_electric(state.potential, eps, x_eval)
    mu = effective_energy(state.label)
    r1 = -d1 + u_eff * w1 - mu * w1
    r2 = -d2 + u_eff * w2 - mu * w2
    return ResidualReport(x=x_eval, residual_1=r1, residual_2=r2)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


COLUMNS = ("x", "re_psi1", "im_psi1", "re_psi2", "im_psi2", "rho", "jy")


def _columns(state: BoundState) -> tuple[np.ndarray, ...]:
    density = current_density(state)
    return (state.x, state.psi1.real, state.psi1.imag, state.psi2.real, state.psi2.imag,
            density.rho, density.j_y)


def state_to_csv(state: BoundState) -> str:
    """One row per sample, each value the shortest repr that reads back
    to the same double, byte for byte as repr writes it but formatted
    CSV_BLOCK values at a time by a numpy kernel.  The text is formatted
    once and kept on the state (a dataclasses.replace copy starts without
    it)."""
    return state._csv


def state_to_json(state: BoundState) -> str:
    """The scalars and the sample columns as json.dumps(payload,
    sort_keys=True) writes them.  A state already written as CSV with
    finite samples only has its columns laid out from the CSV's tokens,
    which are the ones json prints, instead of formatted again.  Its v0
    and half_width are read off the state's square well; any other
    potential raises UnsupportedRegime."""
    well = state.potential
    v0, half_width = -well.values[1], well.breakpoints[-1]
    if not (len(well.values) == 3 and half_width > 0 and well == square_well(v0, half_width)):
        raise UnsupportedRegime(f"state JSON is defined for square wells only, got {well!r}")
    try:
        lam = pt_eigenvalue(state)
        pt = [lam.real, lam.imag]
    except BrokenPTSymmetry:
        pt = None
    scalars = {
        "k": state.label.k,
        "epsilon": state.label.epsilon,
        "v0": v0,
        "half_width": half_width,
        "norm": state.norm,
        "pt_eigenvalue": pt,
    }
    csv = vars(state).get("_csv")
    if csv is None or "nan" in csv or "inf" in csv:  # json writes those as NaN and Infinity
        columns = {key: c.tolist() for key, c in zip(COLUMNS, _columns(state))}
        return json.dumps(scalars | columns, sort_keys=True)
    tokens = csv[csv.index("\n") + 1 : -1].replace("\n", ",").split(",")
    fields = {key: json.dumps(value) for key, value in scalars.items()}
    fields |= {key: "[" + ", ".join(tokens[i :: len(COLUMNS)]) + "]" for i, key in enumerate(COLUMNS)}
    return "{" + ", ".join(f"{json.dumps(key)}: {fields[key]}" for key in sorted(fields)) + "}"
