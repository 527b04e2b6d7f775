"""Bound-state assembly: wavefunctions, densities, and exact integrals.

At a root of the secular function the rotated first component is carried
across the steps of the well, as on the transfer route: the exterior
solution that decays on one side is continued through every step and
region, and each region's two exponential coefficients are read off the
carried value and slope.  The second rotated component follows
algebraically from the first-order system, the overall phase is fixed so
the two components are complex conjugates, and the normalization integral
is evaluated in closed form from the exponential pieces rather than by
quadrature.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

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
    DegenerateMomentum,
    MismatchedMomentum,
    NotAnEigenvalue,
    NotConjugatePair,
    UnsupportedRegime,
)
from .matching import region_wavenumbers

__all__ = [
    "PiecewiseExp",
    "BoundState",
    "DensityProfile",
    "ResidualReport",
    "assemble_square_well_state",
    "partner_component",
    "fix_phase",
    "with_phase",
    "to_real_spinor",
    "probability_density",
    "current_density",
    "count_density_nodes",
    "pt_eigenvalue",
    "inner_product",
    "product_integral",
    "equation_residuals",
    "second_order_residuals",
    "state_to_csv",
    "state_to_json",
]

NULLSPACE_TOL = 1e-6
CONJUGATE_TOL = 1e-8
PT_TOL = 1e-6
_RATE_CUT = 1e-14
# product integrals square the exterior coefficient exp(p L) of a state
# carried from unit value at the step, so 2 p L must stay within range
_EXP_RANGE = math.log(np.finfo(float).max)


class PiecewiseExp:
    """Piecewise sum of complex exponentials on a partition of the line.

    regions is a sequence of (x_lo, x_hi, terms) triples with terms a
    sequence of (coefficient, rate) pairs; on that piece the function is
    sum_j c_j * exp(rate_j * x).  End pieces may extend to +/-inf as long
    as every term decays toward the infinite end, which is what makes the
    product integrals below exact.
    """

    def __init__(self, regions):
        self.regions = [
            (float(lo), float(hi), tuple((complex(c), complex(g)) for c, g in terms))
            for lo, hi, terms in regions
        ]
        self._edges = np.array([r[0] for r in self.regions[1:]])

    def _terms_at(self, x: float):
        i = int(np.searchsorted(self._edges, x, side="right"))
        return self.regions[i][2]

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        out = np.zeros(xs.shape, dtype=complex)
        idx = np.searchsorted(self._edges, xs, side="right")
        for i, (_, _, terms) in enumerate(self.regions):
            m = idx == i
            if not np.any(m):
                continue
            acc = np.zeros(np.count_nonzero(m), dtype=complex)
            for c, g in terms:
                acc += c * np.exp(g * xs[m])
            out[m] = acc
        return out if np.ndim(x) else complex(out)

    def derivative(self) -> "PiecewiseExp":
        return PiecewiseExp(
            [(lo, hi, [(c * g, g) for c, g in terms]) for lo, hi, terms in self.regions]
        )

    def conjugate(self) -> "PiecewiseExp":
        return PiecewiseExp(
            [
                (lo, hi, [(c.conjugate(), g.conjugate()) for c, g in terms])
                for lo, hi, terms in self.regions
            ]
        )

    def scaled(self, factor: complex) -> "PiecewiseExp":
        return PiecewiseExp(
            [(lo, hi, [(factor * c, g) for c, g in terms]) for lo, hi, terms in self.regions]
        )

    def max_abs_coefficient(self) -> float:
        return max(abs(c) for _, _, terms in self.regions for c, _ in terms)


def _exp_at(rate: complex, x: float) -> complex:
    """exp(rate * x) with the decaying-infinite-end convention."""
    if math.isinf(x):
        decays = rate.real < 0 if x > 0 else rate.real > 0
        if decays:
            return 0j
        raise ValueError("product integral diverges at an infinite end")
    return cmath.exp(rate * x)


def product_integral(f: PiecewiseExp, g: PiecewiseExp) -> complex:
    """Exact integral of f(x) g(x) over the whole line (no conjugation).

    The partition is the union of both partitions; each term pair
    integrates to c (e^(r x_hi) - e^(r x_lo)) / r with r the summed rate,
    degenerating to a plain width when the rates cancel.
    """
    edges = sorted(
        {r[0] for r in f.regions}
        | {r[1] for r in f.regions}
        | {r[0] for r in g.regions}
        | {r[1] for r in g.regions}
    )
    total = 0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        if math.isinf(lo):
            probe = hi - 1.0
        elif math.isinf(hi):
            probe = lo + 1.0
        else:
            probe = 0.5 * (lo + hi)
        for cf, gf in f._terms_at(probe):
            for cg, gg in g._terms_at(probe):
                c = cf * cg
                if c == 0:
                    continue
                rate = gf + gg
                if abs(rate) < _RATE_CUT:
                    total += c * (hi - lo)
                else:
                    total += c * (_exp_at(rate, hi) - _exp_at(rate, lo)) / rate
    return total


@dataclass(eq=False)
class BoundState:
    """One normalized bound state sampled on a symmetric grid.

    psi1 and psi2 are the rotated spinor components; after phase fixing
    they satisfy psi2 = conj(psi1), so the physical (real) components are
    recovered by to_real_spinor.  The exact piecewise-exponential waves are
    kept alongside the samples so integrals and residuals stay closed-form.
    """

    label: QuantumLabel
    v0: float
    half_width: float
    norm: float
    x: np.ndarray = field(repr=False)
    psi1: np.ndarray = field(repr=False)
    psi2: np.ndarray = field(repr=False)
    wave1: PiecewiseExp = field(repr=False)
    wave2: PiecewiseExp = field(repr=False)
    potential: PiecewiseConstant = field(repr=False)


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
        if len(self.x) == 0:
            return 0.0
        return float(
            max(np.max(np.abs(self.residual_1)), np.max(np.abs(self.residual_2)))
        )


def partner_component(
    wave1: PiecewiseExp, label: QuantumLabel, potential: PiecewiseConstant
) -> PiecewiseExp:
    """Second rotated component (w' + i (eps - v) w) / k, region by region.

    The construction divides by the transverse momentum, so k = 0 has no
    partner this way (the two rotated components decouple there).
    """
    if label.k == 0:
        raise DegenerateMomentum("partner construction requires k != 0")
    regions = []
    for lo, hi, terms in wave1.regions:
        if math.isinf(lo):
            probe = hi - 1.0
        elif math.isinf(hi):
            probe = lo + 1.0
        else:
            probe = 0.5 * (lo + hi)
        delta = label.epsilon - potential.evaluate(probe)
        regions.append(
            (lo, hi, [((g + 1j * delta) * c / label.k, g) for c, g in terms])
        )
    return PiecewiseExp(regions)


def _conjugation_phase(wave1: PiecewiseExp, wave2: PiecewiseExp) -> float:
    """Angle theta such that after multiplying both components by
    exp(i theta) the second equals the conjugate of the first."""
    n1 = product_integral(wave1.conjugate(), wave1).real
    n2 = product_integral(wave2.conjugate(), wave2).real
    cross = product_integral(wave1, wave2)
    if n1 <= 0 or n2 <= 0:
        raise NotConjugatePair("component norms must be positive")
    # Cauchy-Schwarz saturation <=> psi2 is a multiple of conj(psi1)
    collinearity = abs(cross) ** 2 / (n1 * n2)
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


def _canonical_sign(wave1: PiecewiseExp) -> float:
    v = complex(wave1(0.0))
    cut = 1e-12 * max(wave1.max_abs_coefficient(), 1e-300)
    if abs(v.real) > cut:
        return 1.0 if v.real > 0 else -1.0
    if abs(v.imag) > cut:
        return 1.0 if v.imag > 0 else -1.0
    return 1.0


def _sample_state(
    label: QuantumLabel,
    v0: float,
    half_width: float,
    wave1: PiecewiseExp,
    wave2: PiecewiseExp,
    potential: PiecewiseConstant,
    x: np.ndarray,
) -> BoundState:
    norm = 4.0 * product_integral(wave1.conjugate(), wave1).real
    return BoundState(
        label=label,
        v0=v0,
        half_width=half_width,
        norm=norm,
        x=x,
        psi1=wave1(x),
        psi2=wave2(x),
        wave1=wave1,
        wave2=wave2,
        potential=potential,
    )


def _canonical_gauge(
    wave1: PiecewiseExp, wave2: PiecewiseExp
) -> tuple[PiecewiseExp, PiecewiseExp]:
    """Both components times one factor: afterwards wave2 = conj(wave1),
    wave1 is positive at the origin (real part first, then imaginary) and
    the probability density integrates to one."""
    factor = cmath.exp(1j * _conjugation_phase(wave1, wave2))
    factor *= _canonical_sign(wave1.scaled(factor))
    factor /= math.sqrt(4.0 * product_integral(wave1.conjugate(), wave1).real)
    return wave1.scaled(factor), wave2.scaled(factor)


def fix_phase(state: BoundState) -> BoundState:
    """Canonical-gauge copy of a state: psi2 = conj(psi1), a positive value
    (real part first, then imaginary) at the origin and unit norm.
    Idempotent."""
    w1, w2 = _canonical_gauge(state.wave1, state.wave2)
    return _sample_state(
        state.label, state.v0, state.half_width, w1, w2, state.potential, state.x
    )


def with_phase(state: BoundState, theta: float) -> BoundState:
    """Copy of a state with both components multiplied by exp(i theta)."""
    factor = cmath.exp(1j * theta)
    return _sample_state(
        state.label,
        state.v0,
        state.half_width,
        state.wave1.scaled(factor),
        state.wave2.scaled(factor),
        state.potential,
        state.x,
    )


def _carry(
    potential: PiecewiseConstant, label: QuantumLabel, direction: int
) -> list[tuple[float, complex, complex, complex]]:
    """Carry the exterior solution that decays on the starting side across
    every step of the profile.

    direction=+1 starts at the leftmost step with (psi, psi') = (1, p) and
    walks right, direction=-1 starts at the rightmost step with (1, -p) and
    walks left.  Entering a region, psi' changes by i (v_new - v_old) psi:
    +i J psi for a step of size J walking right, -i J psi walking left.
    Returns one (x0, g, a, b) per region in walking order: on that region
    the solution is a exp(g (x - x0)) + b exp(-g (x - x0)), with
    g = sqrt(k^2 - (eps - v)^2) and x0 the step it was entered by (the
    first step for the starting exterior).
    """
    k, eps = label.k, label.epsilon
    steps, values = potential.breakpoints, potential.values
    if direction < 0:
        steps, values = steps[::-1], values[::-1]
    psi, dpsi = 1.0, direction * math.sqrt(k * k - (eps - values[0]) ** 2)
    regions = []
    for i, v in enumerate(values):
        x0 = steps[max(i - 1, 0)]
        if i:
            dpsi += 1j * (v - values[i - 1]) * psi
        g = cmath.sqrt(k * k - (eps - v) ** 2)
        a, b = 0.5 * (psi + dpsi / g), 0.5 * (psi - dpsi / g)
        regions.append((x0, g, a, b))
        if 0 < i < len(steps):
            w = steps[i] - x0  # negative when walking left
            ea, eb = a * cmath.exp(g * w), b * cmath.exp(-g * w)
            psi, dpsi = ea + eb, g * (ea - eb)
    return regions


def _carried_wave(potential: PiecewiseConstant, label: QuantumLabel) -> PiecewiseExp:
    """Rotated first component at a root, as the region-by-region average
    of the left-to-right and right-to-left carries.

    Raises NotAnEigenvalue when the left-decaying solution keeps a
    right-growing part above NULLSPACE_TOL of its exterior amplitude.  The
    right-to-left carry is scaled onto the other by least squares over the
    interior coefficients; each exterior keeps its decaying term only, so
    averaging splits the mismatch left by an inexact root between the two
    outer steps.
    """
    forward = _carry(potential, label, 1)
    backward = _carry(potential, label, -1)[::-1]
    _, _, grow, decay = forward[-1]
    growth = abs(grow) / (abs(grow) + abs(decay))
    if growth > NULLSPACE_TOL:
        raise NotAnEigenvalue(
            f"no matching nullspace at epsilon={label.epsilon!r} "
            f"(right-growing part {growth:.3e} of the exterior amplitude)"
        )

    def terms(regions):
        out = [
            [(a * cmath.exp(-g * x0), g), (b * cmath.exp(g * x0), -g)]
            for x0, g, a, b in regions
        ]
        out[0], out[-1] = out[0][:1], out[-1][1:]
        return out

    fwd, bwd = terms(forward), terms(backward)
    f = np.array([c for region in fwd[1:-1] for c, _ in region])
    r = np.array([c for region in bwd[1:-1] for c, _ in region])
    scale = np.vdot(r, f) / np.vdot(r, r)
    edges = (-math.inf, *potential.breakpoints, math.inf)
    return PiecewiseExp(
        [
            (lo, hi, [(0.5 * (cf + scale * cb), g) for (cf, g), (cb, _) in zip(tf, tb)])
            for lo, hi, tf, tb in zip(edges[:-1], edges[1:], fwd, bwd)
        ]
    )


def assemble_square_well_state(
    label: QuantumLabel, v0: float, half_width: float = 1.0, points: int = 4001
) -> BoundState:
    """Build the normalized bound state of a square well at a secular root.

    The rotated first component is carried across both steps from each
    decaying exterior and the two carries are averaged.  Raises
    NotAnEigenvalue when the solution that decays to the left still grows
    to the right by more than 1e-6 of its exterior amplitude, and
    UnsupportedRegime when exp(2 p L) exceeds the double range, which the
    exponential pieces cannot hold.  The returned state is phase-fixed,
    sign-canonical, and normalized so the probability density integrates
    to one (closed form, not quadrature).
    """
    potential = square_well(v0, half_width)
    p, _ = region_wavenumbers(label, v0, half_width)
    if 2.0 * p * half_width > _EXP_RANGE:
        raise UnsupportedRegime(
            f"exterior coefficient exp(p L) = exp({p * half_width:.1f}) at "
            f"epsilon={label.epsilon!r} squares beyond the double range"
        )
    wave1 = _carried_wave(potential, label)
    wave1, wave2 = _canonical_gauge(wave1, partner_component(wave1, label, potential))

    points = max(int(points), 3) | 1  # symmetric grid wants an odd count
    extent = half_width + 12.0 / p
    half = (points - 1) // 2
    pos = np.linspace(0.0, extent, half + 1)
    x = np.concatenate([-pos[::-1][:-1], pos])
    return _sample_state(label, v0, half_width, wave1, wave2, potential, x)


def to_real_spinor(state: BoundState) -> tuple[np.ndarray, np.ndarray]:
    """Real spinor components (2 Re psi1, -2 Im psi1) of a phase-fixed
    state; the rotated first component is recovered as (a - i b) / 2."""
    return 2.0 * state.psi1.real, -2.0 * state.psi1.imag


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
    j_y = -8.0 * state.psi1.real * state.psi1.imag
    return DensityProfile(x=state.x, rho=rho, j_x=np.zeros_like(j_y), j_y=j_y)


def count_density_nodes(profile: DensityProfile, depth: float = 1e-3) -> int:
    """Interior local minima of rho lying below depth * max(rho).

    The density of a relativistic bound state does not vanish exactly
    between lobes, so nodes are counted as deep minima rather than zeros.
    """
    rho = profile.rho
    peak = float(np.max(rho))
    inner = rho[1:-1]
    minima = (inner < rho[:-2]) & (inner < rho[2:]) & (inner < depth * peak)
    return int(np.count_nonzero(minima))


def pt_eigenvalue(state: BoundState, tol: float = PT_TOL) -> complex:
    """Eigenvalue lambda of the parity-conjugation map conj(psi1(-x)) =
    lambda psi1(x); +/-i for the square-well states, alternating with the
    excitation index.  Raises BrokenPTSymmetry when no lambda fits."""
    flipped = np.conjugate(state.psi1[::-1])
    denom = np.vdot(state.psi1, state.psi1)
    if denom == 0:
        raise BrokenPTSymmetry("cannot fit a PT eigenvalue to a null state")
    lam = np.vdot(state.psi1, flipped) / denom
    residual = np.linalg.norm(flipped - lam * state.psi1) / np.linalg.norm(flipped)
    if residual > tol:
        raise BrokenPTSymmetry(
            f"reflection-conjugation misfit {residual:.3e} exceeds {tol:g}"
        )
    return complex(lam)


def inner_product(a: BoundState, b: BoundState) -> complex:
    """Bilinear overlap 2 * integral(psi2_a psi1_b + psi1_a psi2_b) dx,
    evaluated exactly; square-well states at the same k are orthonormal
    under it.  States at different k never mix (plane-wave factor)."""
    if a.label.k != b.label.k:
        raise MismatchedMomentum(
            f"overlap requires equal transverse momenta, got {a.label.k!r} and {b.label.k!r}"
        )
    return 2.0 * (
        product_integral(a.wave2, b.wave1) + product_integral(a.wave1, b.wave2)
    )


def equation_residuals(state: BoundState, grid_derivatives: bool = False) -> ResidualReport:
    """Residuals of the coupled first-order system along the grid.

    With exact derivatives (default) the residual is zero to rounding.
    With grid_derivatives=True a fourth-order stencil replaces the exact
    derivative and points within five spacings of a potential step (where
    the derivative jumps) or of the grid ends are excluded.
    """
    k = state.label.k
    eps = state.label.epsilon
    x = state.x
    psi1 = state.psi1
    psi2 = state.psi2
    if grid_derivatives:
        h = x[1] - x[0]
        d1 = (-psi1[4:] + 8 * psi1[3:-1] - 8 * psi1[1:-3] + psi1[:-4]) / (12 * h)
        d2 = (-psi2[4:] + 8 * psi2[3:-1] - 8 * psi2[1:-3] + psi2[:-4]) / (12 * h)
        xin = x[2:-2]
        keep = np.ones(len(xin), dtype=bool)
        for b in state.potential.breakpoints:
            keep &= np.abs(xin - b) > 5.0 * h
        x_eval, psi1, psi2 = xin[keep], psi1[2:-2][keep], psi2[2:-2][keep]
        d1, d2 = d1[keep], d2[keep]
    else:
        x_eval = x
        d1 = state.wave1.derivative()(x)
        d2 = state.wave2.derivative()(x)
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
    x = state.x
    w1 = state.psi1
    w2 = state.psi2
    if grid_derivatives:
        h = x[1] - x[0]
        d1 = (-w1[4:] + 16 * w1[3:-1] - 30 * w1[2:-2] + 16 * w1[1:-3] - w1[:-4]) / (12 * h * h)
        d2 = (-w2[4:] + 16 * w2[3:-1] - 30 * w2[2:-2] + 16 * w2[1:-3] - w2[:-4]) / (12 * h * h)
        xin = x[2:-2]
        keep = np.ones(len(xin), dtype=bool)
        for b in state.potential.breakpoints:
            keep &= np.abs(xin - b) > 5.0 * h
        x_eval, w1, w2 = xin[keep], w1[2:-2][keep], w2[2:-2][keep]
        d1, d2 = d1[keep], d2[keep]
    else:
        keep = np.ones(len(x), dtype=bool)
        for b in state.potential.breakpoints:
            keep &= x != b
        x_eval, w1, w2 = x[keep], w1[keep], w2[keep]
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


def state_to_csv(state: BoundState) -> str:
    density = current_density(state)
    lines = ["x,re_psi1,im_psi1,re_psi2,im_psi2,rho,jy"]
    for i in range(len(state.x)):
        lines.append(
            f"{float(state.x[i])!r},{float(state.psi1[i].real)!r},{float(state.psi1[i].imag)!r},"
            f"{float(state.psi2[i].real)!r},{float(state.psi2[i].imag)!r},"
            f"{float(density.rho[i])!r},{float(density.j_y[i])!r}"
        )
    return "\n".join(lines) + "\n"


def state_to_json(state: BoundState) -> str:
    density = current_density(state)
    try:
        lam = pt_eigenvalue(state)
        pt = [lam.real, lam.imag]
    except BrokenPTSymmetry:
        pt = None
    payload = {
        "k": state.label.k,
        "epsilon": state.label.epsilon,
        "v0": state.v0,
        "half_width": state.half_width,
        "norm": state.norm,
        "pt_eigenvalue": pt,
        "x": state.x.tolist(),
        "re_psi1": state.psi1.real.tolist(),
        "im_psi1": state.psi1.imag.tolist(),
        "re_psi2": state.psi2.real.tolist(),
        "im_psi2": state.psi2.imag.tolist(),
        "rho": density.rho.tolist(),
        "jy": density.j_y.tolist(),
    }
    return json.dumps(payload, sort_keys=True)
