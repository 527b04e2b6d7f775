"""Bound-state matching for piecewise-constant electrostatic profiles.

For a purely electrostatic profile the rotated components
psi_t1 = (psi_1 - i psi_2)/2, psi_t2 = (psi_1 + i psi_2)/2 decouple into
scalar second-order equations.  On each region of constant v the first
component satisfies psi'' = m psi with m = k^2 - (eps - v)^2, so the
solution is a two-exponential combination; at a step of size J the value is
continuous while the derivative jumps by i J psi, the imprint of the
delta-function derivative of the profile.

Two equivalent secular quantities are built from this structure: the
closed-form determinant condition for the symmetric square well, and a
transfer-matrix value for arbitrary piecewise profiles whose zeros mark the
bound states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import FieldConfig, PiecewiseConstant, QuantumLabel, classify_case, square_well
from .errors import ConfigError, OutsideAdmissibleBand, UnboundedStateRequest

__all__ = [
    "MatchSystem",
    "SecularFunction",
    "region_wavenumbers",
    "secular_det_square_well",
    "square_well_secular",
    "assemble_match_system",
    "secular_det_general",
    "general_secular",
    "square_well_config",
]


@dataclass(frozen=True)
class MatchSystem:
    """Homogeneous linear system expressing continuity and derivative jumps.

    matrix has shape (2N, 2N) for N breakpoints; its null space holds the
    region coefficients ordered left to right.
    """

    matrix: np.ndarray
    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    region_kinds: tuple[str, ...]
    wavenumbers: tuple[float, ...]
    centers: tuple[float, ...]
    label: QuantumLabel

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.matrix, compute_uv=False)


@dataclass(frozen=True)
class SecularFunction:
    """Real function of eps whose sign changes bracket the bound states."""

    f: Callable[[np.ndarray], np.ndarray]
    lo: float
    hi: float
    k: float
    description: str = ""

    def __call__(self, epsilon):
        return self.f(epsilon)

    @property
    def empty(self) -> bool:
        return not (self.lo < self.hi)


def region_wavenumbers(
    label: QuantumLabel, v0: float, half_width: float = 1.0
) -> tuple[float, float]:
    """Exterior decay rate p and interior wavenumber q for the square well.

    Raises OutsideAdmissibleBand naming the violated condition; the
    boundary cases p = 0 and q = 0 are rejected as well.
    """
    k, eps = label.k, label.epsilon
    p_sq = k * k - eps * eps
    if p_sq <= 0.0:
        raise OutsideAdmissibleBand(
            f"decaying exterior needs |epsilon| < |k|: eps={eps}, k={k}"
        )
    q_sq = (eps + v0) ** 2 - k * k
    if q_sq <= 0.0:
        raise OutsideAdmissibleBand(
            f"oscillatory interior needs |epsilon + v0| > |k|: eps={eps}, v0={v0}, k={k}"
        )
    return math.sqrt(p_sq), math.sqrt(q_sq)


def _square_well_secular_value(k, epsilon, v0, half_width):
    """Closed-form secular value; no admissibility check, vectorized.

    Both factors vanish together at the q -> 0 band edge, so the value is
    continuous there; clipping keeps square roots real under rounding.
    """
    eps = np.asarray(epsilon, dtype=float)
    p = np.sqrt(np.clip(k * k - eps**2, 0.0, None))
    q = np.sqrt(np.clip((eps + v0) ** 2 - k * k, 0.0, None))
    return p * q * np.cos(2.0 * half_width * q) - (
        eps * (eps + v0) - k * k
    ) * np.sin(2.0 * half_width * q)


def secular_det_square_well(
    k: float, epsilon: float, v0: float, half_width: float = 1.0
) -> float:
    """Closed-form secular value p q cos(2Lq) - (eps(eps+v0) - k^2) sin(2Lq).

    Bound states of the square well are exactly its zeros inside the
    admissible band.
    """
    region_wavenumbers(QuantumLabel(k, epsilon), v0, half_width)
    return float(_square_well_secular_value(k, epsilon, v0, half_width))


def square_well_secular(k: float, v0: float, half_width: float = 1.0) -> SecularFunction:
    """Secular function for the square well over its admissible band."""
    kk = abs(k)
    lo, hi = max(-kk, kk - v0), kk
    return SecularFunction(
        f=lambda eps: _square_well_secular_value(k, eps, v0, half_width),
        lo=lo,
        hi=hi,
        k=k,
        description=f"square well v0={v0}, half_width={half_width}",
    )


# ---------------------------------------------------------------------------
# explicit matching system
# ---------------------------------------------------------------------------


def _electrostatic_steps(config: FieldConfig) -> PiecewiseConstant:
    if classify_case(config).kind != "pure_electric":
        raise ConfigError("matching handles purely electrostatic configurations")
    pot = config.electric
    if not isinstance(pot, PiecewiseConstant):
        raise ConfigError("matching needs a piecewise-constant profile")
    if not pot.breakpoints:
        raise ConfigError("profile has no steps, nothing to match")
    return pot


def _region_basis(kind, wavenumber, center):
    """Pair of (value, derivative) callables for the region's basis functions."""
    if kind == "evanescent_left":
        p = wavenumber
        return [(lambda x: np.exp(p * x), lambda x: p * np.exp(p * x))]
    if kind == "evanescent_right":
        p = wavenumber
        return [(lambda x: np.exp(-p * x), lambda x: -p * np.exp(-p * x))]
    if kind == "oscillatory":
        q = wavenumber
        return [
            (lambda x: np.exp(1j * q * x), lambda x: 1j * q * np.exp(1j * q * x)),
            (lambda x: np.exp(-1j * q * x), lambda x: -1j * q * np.exp(-1j * q * x)),
        ]
    if kind == "evanescent":
        kap = wavenumber
        return [
            (lambda x: np.cosh(kap * (x - center)), lambda x: kap * np.sinh(kap * (x - center))),
            (lambda x: np.sinh(kap * (x - center)), lambda x: kap * np.cosh(kap * (x - center))),
        ]
    # kind == "degenerate": psi'' = 0
    return [
        (lambda x: 1.0 + 0.0 * x, lambda x: 0.0 * x),
        (lambda x: x - center, lambda x: 1.0 + 0.0 * x),
    ]


def assemble_match_system(config: FieldConfig, label: QuantumLabel) -> MatchSystem:
    """Continuity-plus-jump system for a piecewise-constant electrostatic well.

    One value row and one derivative-jump row per breakpoint; the jump term
    i J psi is written with the single-coefficient exterior solution at the
    outermost breakpoints (value continuity makes the choice immaterial for
    the null space).  Exterior regions must be evanescent, otherwise
    UnboundedStateRequest is raised.
    """
    pot = _electrostatic_steps(config)
    k, eps = label.k, label.epsilon
    breaks = pot.breakpoints
    values = pot.values
    n = len(breaks)

    kinds: list[str] = []
    wavenumbers: list[float] = []
    centers: list[float] = []
    for r, v in enumerate(values):
        m = k * k - (eps - v) ** 2
        if r == 0 or r == len(values) - 1:
            side = "left" if r == 0 else "right"
            if m <= 0.0:
                raise UnboundedStateRequest(
                    f"{side} exterior cannot decay: k^2 - (eps - v)^2 = {m:.3e} <= 0"
                )
            kinds.append(f"evanescent_{side}")
            wavenumbers.append(math.sqrt(m))
            centers.append(0.0)
        else:
            center = 0.5 * (breaks[r - 1] + breaks[r])
            centers.append(center)
            if m > 0.0:
                kinds.append("evanescent")
                wavenumbers.append(math.sqrt(m))
            elif m < 0.0:
                kinds.append("oscillatory")
                wavenumbers.append(math.sqrt(-m))
            else:
                kinds.append("degenerate")
                wavenumbers.append(0.0)

    offsets = []
    col = 0
    for kind in kinds:
        offsets.append(col)
        col += 1 if kind.startswith("evanescent_") else 2
    size = col
    matrix = np.zeros((2 * n, size), dtype=complex)

    bases = [_region_basis(kd, wn, ct) for kd, wn, ct in zip(kinds, wavenumbers, centers)]
    for j, xb in enumerate(breaks):
        jump = values[j + 1] - values[j]
        rep = j + 1 if j == n - 1 else j  # exterior representation at the last step
        for region, sign in ((j, 1.0), (j + 1, -1.0)):
            for c, (val, der) in enumerate(bases[region]):
                matrix[2 * j, offsets[region] + c] += sign * val(xb)
                matrix[2 * j + 1, offsets[region] + c] += sign * der(xb)
        for c, (val, _) in enumerate(bases[rep]):
            matrix[2 * j + 1, offsets[rep] + c] += 1j * jump * val(xb)

    return MatchSystem(
        matrix=matrix,
        breakpoints=breaks,
        values=values,
        region_kinds=tuple(kinds),
        wavenumbers=tuple(wavenumbers),
        centers=tuple(centers),
        label=label,
    )


# ---------------------------------------------------------------------------
# transfer-matrix secular value for arbitrary piecewise profiles
# ---------------------------------------------------------------------------

_SERIES_CUT = 1e-10


def _propagator_entries(m, w):
    """Entries (c, s/kappa, kappa*s) of the (psi, psi') propagator over width w
    for psi'' = m psi, elementwise in m.

    The evanescent branch is rescaled by exp(-kappa w) (a positive factor,
    harmless for locating zeros) so wide regions cannot overflow; near
    m = 0 an expansion in m w^2 keeps everything smooth.
    """
    m = np.asarray(m, dtype=float)
    z = m * w * w
    kap = np.sqrt(np.clip(m, 0.0, None))
    q = np.sqrt(np.clip(-m, 0.0, None))

    with np.errstate(divide="ignore", invalid="ignore"):
        decay = np.exp(-2.0 * kap * w)
        c_ev = 0.5 * (1.0 + decay)
        sdiv_ev = np.where(kap > 0.0, (1.0 - decay) / np.where(kap > 0.0, 2.0 * kap, 1.0), w)
        c_os = np.cos(q * w)
        sdiv_os = np.where(q > 0.0, np.sin(q * w) / np.where(q > 0.0, q, 1.0), w)
    c_se = 1.0 + z / 2.0 + z * z / 24.0
    sdiv_se = w * (1.0 + z / 6.0 + z * z / 120.0)

    series = np.abs(z) < _SERIES_CUT
    evan = (~series) & (m > 0.0)
    c = np.where(series, c_se, np.where(evan, c_ev, c_os))
    sdiv = np.where(series, sdiv_se, np.where(evan, sdiv_ev, sdiv_os))
    return c, sdiv, m * sdiv


def _exterior_directions(k, delta, p):
    """(psi_1, psi_2) eigenvectors of M along the growing (+p) and decaying
    (-p) directions, in a representation that stays nonzero for the given
    sign of k."""
    if k >= 0.0:
        grow = (k + p, delta)
        decay = (delta, k + p)
    else:
        grow = (delta, k - p)
        decay = (k - p, delta)
    return grow, decay


def secular_det_general(config: FieldConfig, label: QuantumLabel):
    """Transfer-matrix secular value for a piecewise electrostatic profile.

    The pair (psi_t1, psi_t1') is seeded at the leftmost step with the
    exact decaying exterior solution, carried through every region and
    derivative jump, and finally projected on the component along the
    right-growing exterior direction.  Seeding with the phase inherited
    from the real two-component solution makes the projection real, so the
    returned value changes sign transversally at every bound state.

    epsilon may be a float or an array (the transfer algebra is
    elementwise); exteriors that cannot decay raise UnboundedStateRequest.
    """
    pot = _electrostatic_steps(config)
    k = label.k
    eps = np.asarray(label.epsilon, dtype=float)
    scalar = eps.ndim == 0
    eps = np.atleast_1d(eps)

    breaks = pot.breakpoints
    values = pot.values
    d_lo = eps - values[0]
    d_hi = eps - values[-1]
    p_lo_sq = k * k - d_lo**2
    p_hi_sq = k * k - d_hi**2
    if np.any(p_lo_sq <= 0.0) or np.any(p_hi_sq <= 0.0):
        raise UnboundedStateRequest(
            "an exterior region cannot decay at the requested (k, epsilon)"
        )
    p_lo = np.sqrt(p_lo_sq)
    p_hi = np.sqrt(p_hi_sq)

    grow, _ = _exterior_directions(k, d_lo, p_lo)
    psi = 0.5 * (grow[0] - 1j * grow[1]) * np.ones_like(eps)
    dpsi = p_lo * psi

    for i, xb in enumerate(breaks):
        dpsi = dpsi + 1j * (values[i + 1] - values[i]) * psi
        if i + 1 < len(breaks):
            w = breaks[i + 1] - xb
            m = k * k - (eps - values[i + 1]) ** 2
            c, sdiv, ks = _propagator_entries(m, w)
            psi, dpsi = c * psi + sdiv * dpsi, ks * psi + c * dpsi

    _, decay = _exterior_directions(k, d_hi, p_hi)
    out = 2.0 * np.real(psi) * decay[1] + 2.0 * np.imag(psi) * decay[0]
    return float(out[0]) if scalar else out


def general_secular(config: FieldConfig, k: float) -> SecularFunction:
    """Secular function for an arbitrary piecewise electrostatic profile.

    The domain is the energy window where both exterior regions decay.
    """
    pot = _electrostatic_steps(config)
    kk = abs(k)
    v_lo, v_hi = pot.values[0], pot.values[-1]
    lo = max(v_lo, v_hi) - kk
    hi = min(v_lo, v_hi) + kk
    return SecularFunction(
        f=lambda eps: secular_det_general(config, QuantumLabel(k, eps)),
        lo=lo,
        hi=hi,
        k=k,
        description=f"piecewise profile with {len(pot.breakpoints)} steps",
    )


def square_well_config(v0: float, half_width: float = 1.0) -> FieldConfig:
    """FieldConfig for the canonical electrostatic square well."""
    return FieldConfig(electric=square_well(v0, half_width))
