"""Field profiles in reduced units, field configurations and their cases.

PHYSICS SCOPE
    Massless Dirac-Weyl quasiparticles in a graphene monolayer subject to
    electrostatic and/or magnetic field profiles that depend on x only and
    are translation invariant along y.  Separating Psi(x, y) =
    exp(i k y) (psi_1, i psi_2) reduces the stationary problem to a real
    two-component first-order system

        d/dx (psi_1, psi_2)^T = M(x) (psi_1, psi_2)^T,
        M = [[W, -Delta], [Delta, -W]],

    with W(x) = k + a(x) and Delta(x) = eps - v(x).

UNITS
    All solver-facing quantities are in reduced form: eps = E / (hbar vF),
    v = V / (hbar vF), a = e A_y / hbar, so that eps, v, a, and k all carry
    dimension 1/length.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, DiscontinuityPoint, SingularPoint

__all__ = [
    "PiecewiseConstant",
    "Linear",
    "CoulombLike",
    "Lorentzian",
    "Tanh",
    "Potential1D",
    "FieldConfig",
    "QuantumLabel",
    "CaseClass",
    "square_well",
    "evaluate_potential",
    "potential_to_json",
    "potential_from_json",
    "classify_case",
    "effective_potential_electric",
    "effective_energy",
]

# Proportionality between the two field profiles is accepted only when it
# holds to this tolerance on a 101-point probe grid.
PROPORTIONALITY_TOL = 1e-12
_PROBE_POINTS = 101


# ---------------------------------------------------------------------------
# potential families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseConstant:
    """Step profile: values[i] on (breakpoints[i-1], breakpoints[i]).

    At a breakpoint the right limit is returned.  values is exactly one
    entry longer than breakpoints.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "breakpoints", tuple(float(b) for b in self.breakpoints))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) != len(self.breakpoints) + 1:
            raise ConfigError("need exactly one more value than breakpoints")
        if any(not math.isfinite(b) for b in self.breakpoints):
            raise ConfigError("breakpoints must be finite")
        if any(not math.isfinite(v) for v in self.values):
            raise ConfigError("values must be finite")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ConfigError("breakpoints must be strictly increasing")

    def evaluate(self, x):
        idx = np.searchsorted(np.asarray(self.breakpoints), np.asarray(x), side="right")
        out = np.asarray(self.values)[idx]
        return out if np.ndim(x) else float(out)

    def derivative(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if self.breakpoints and np.any(np.isin(xs, np.asarray(self.breakpoints))):
            raise DiscontinuityPoint("derivative undefined at a step of the profile")
        out = np.zeros_like(xs)
        return out if np.ndim(x) else 0.0

    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.values)

    def support(self) -> tuple[float, float]:
        if not self.breakpoints:
            return (-1.0, 1.0)
        return (self.breakpoints[0] - 1.0, self.breakpoints[-1] + 1.0)


@dataclass(frozen=True)
class Linear:
    """Linear profile slope * x; as a vector potential it encodes a uniform
    magnetic field of strength slope."""

    slope: float

    def evaluate(self, x):
        out = self.slope * np.asarray(x, dtype=float)
        return out if np.ndim(x) else float(out)

    def derivative(self, x):
        out = np.full_like(np.asarray(x, dtype=float), self.slope)
        return out if np.ndim(x) else self.slope

    def is_zero(self) -> bool:
        return self.slope == 0.0

    def support(self) -> tuple[float, float]:
        return (-10.0, 10.0)


@dataclass(frozen=True)
class CoulombLike:
    """strength / |x|, singular at the origin.

    A bound-state calculation needs the optional regularization cutoff;
    with it the profile is strength / max(|x|, cutoff).
    """

    strength: float
    cutoff: float | None = None

    def __post_init__(self) -> None:
        if self.cutoff is not None and self.cutoff <= 0:
            raise ConfigError("cutoff must be positive when given")

    def evaluate(self, x):
        xs = np.asarray(x, dtype=float)
        if self.cutoff is None:
            if np.any(xs == 0.0):
                raise SingularPoint("profile diverges at x = 0; supply a cutoff")
            out = self.strength / np.abs(xs)
        else:
            out = self.strength / np.maximum(np.abs(xs), self.cutoff)
        return out if np.ndim(x) else float(out)

    def derivative(self, x):
        xs = np.asarray(x, dtype=float)
        if self.cutoff is None:
            if np.any(xs == 0.0):
                raise SingularPoint("profile diverges at x = 0; supply a cutoff")
            out = -self.strength * np.sign(xs) / xs**2
        else:
            if np.any(np.abs(xs) == self.cutoff):
                raise DiscontinuityPoint("derivative undefined at the cutoff radius")
            out = np.where(
                np.abs(xs) > self.cutoff,
                -self.strength * np.sign(xs) / np.where(xs == 0.0, 1.0, xs) ** 2,
                0.0,
            )
        return out if np.ndim(x) else float(out)

    def is_zero(self) -> bool:
        return self.strength == 0.0

    def support(self) -> tuple[float, float]:
        return (-10.0, 10.0)


@dataclass(frozen=True)
class Lorentzian:
    """strength / (1 + x^2); a smooth well for negative strength."""

    strength: float

    def evaluate(self, x):
        out = self.strength / (1.0 + np.asarray(x, dtype=float) ** 2)
        return out if np.ndim(x) else float(out)

    def derivative(self, x):
        xs = np.asarray(x, dtype=float)
        out = -2.0 * self.strength * xs / (1.0 + xs**2) ** 2
        return out if np.ndim(x) else float(out)

    def is_zero(self) -> bool:
        return self.strength == 0.0

    def support(self) -> tuple[float, float]:
        return (-10.0, 10.0)


@dataclass(frozen=True)
class Tanh:
    """strength * tanh(x), a smooth step between -strength and +strength."""

    strength: float

    def evaluate(self, x):
        out = self.strength * np.tanh(np.asarray(x, dtype=float))
        return out if np.ndim(x) else float(out)

    def derivative(self, x):
        out = self.strength / np.cosh(np.asarray(x, dtype=float)) ** 2
        return out if np.ndim(x) else float(out)

    def is_zero(self) -> bool:
        return self.strength == 0.0

    def support(self) -> tuple[float, float]:
        return (-10.0, 10.0)


Potential1D = Union[PiecewiseConstant, Linear, CoulombLike, Lorentzian, Tanh]

_FAMILY_TAGS = {
    PiecewiseConstant: "piecewise_constant",
    Linear: "linear",
    CoulombLike: "coulomb_like",
    Lorentzian: "lorentzian",
    Tanh: "tanh",
}


def square_well(v0: float, half_width: float = 1.0) -> PiecewiseConstant:
    """Electrostatic well of depth v0 on (-half_width, half_width), zero outside."""
    if half_width <= 0:
        raise ConfigError("half_width must be positive")
    return PiecewiseConstant((-half_width, half_width), (0.0, -v0, 0.0))


def evaluate_potential(potential: Potential1D, x):
    """Profile value at x (scalar or array); right limit at any step."""
    return potential.evaluate(x)


def potential_to_json(potential: Potential1D) -> str:
    tag = _FAMILY_TAGS[type(potential)]
    if isinstance(potential, PiecewiseConstant):
        payload = {
            "family": tag,
            "breakpoints": list(potential.breakpoints),
            "values": list(potential.values),
        }
    elif isinstance(potential, Linear):
        payload = {"family": tag, "slope": potential.slope}
    elif isinstance(potential, CoulombLike):
        payload = {"family": tag, "strength": potential.strength}
        if potential.cutoff is not None:
            payload["cutoff"] = potential.cutoff
    else:
        payload = {"family": tag, "strength": potential.strength}
    return json.dumps(payload, sort_keys=True)


def potential_from_json(text: str) -> Potential1D:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid potential JSON: {exc}") from exc
    if not isinstance(payload, dict) or "family" not in payload:
        raise ConfigError("potential JSON must be an object with a 'family' key")
    family = payload["family"]
    try:
        if family == "piecewise_constant":
            return PiecewiseConstant(tuple(payload["breakpoints"]), tuple(payload["values"]))
        if family == "linear":
            return Linear(float(payload["slope"]))
        if family == "coulomb_like":
            cutoff = payload.get("cutoff")
            return CoulombLike(float(payload["strength"]), None if cutoff is None else float(cutoff))
        if family == "lorentzian":
            return Lorentzian(float(payload["strength"]))
        if family == "tanh":
            return Tanh(float(payload["strength"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed parameters for family '{family}': {exc}") from exc
    raise ConfigError(f"unknown potential family '{family}'")


# ---------------------------------------------------------------------------
# configuration and classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantumLabel:
    """Conserved longitudinal momentum k and reduced energy eps of a state."""

    k: float
    epsilon: float


@dataclass(frozen=True)
class FieldConfig:
    """Electrostatic profile v(x) and/or vector-potential profile a(x).

    proportionality, when set, asserts v(x) = proportionality * a(x); the
    claim is verified on a probe grid at construction time.
    """

    electric: Potential1D | None
    magnetic: Potential1D | None = None
    proportionality: float | None = None

    def __post_init__(self) -> None:
        if self.electric is None and self.magnetic is None:
            raise ConfigError("at least one of electric/magnetic must be present")
        if self.proportionality is not None:
            if self.electric is None or self.magnetic is None:
                raise ConfigError("proportionality needs both profiles present")
            xs = _probe_grid(self)
            dev = np.max(
                np.abs(
                    self.electric.evaluate(xs)
                    - self.proportionality * self.magnetic.evaluate(xs)
                )
            )
            if dev > PROPORTIONALITY_TOL:
                raise ConfigError(
                    f"profiles violate the declared proportionality (deviation {dev:.3e})"
                )


@dataclass(frozen=True)
class CaseClass:
    """Outcome of classify_case.

    kind is one of 'pure_magnetic', 'pure_electric', 'proportional',
    'unsupported'.  For the proportional kind, alpha holds the ratio and
    regime is 'trigonometric' (|alpha| < 1), 'hyperbolic' (|alpha| > 1) or
    'parabolic' (|alpha| = 1).
    """

    kind: str
    alpha: float | None = None
    regime: str | None = None


def _probe_grid(config: FieldConfig) -> np.ndarray:
    los, his = [], []
    for pot in (config.electric, config.magnetic):
        if pot is not None and not pot.is_zero():
            lo, hi = pot.support()
            los.append(lo)
            his.append(hi)
    if not los:
        los, his = [-1.0], [1.0]
    xs = np.linspace(min(los), max(his), _PROBE_POINTS)
    # dodge a singular origin (e.g. an unregularized 1/|x| profile)
    if any(isinstance(p, CoulombLike) and p.cutoff is None for p in (config.electric, config.magnetic) if p is not None):
        xs = xs + 0.5 * (xs[1] - xs[0])
    return xs


def _regime(alpha: float) -> str:
    if abs(alpha) < 1.0:
        return "trigonometric"
    if abs(alpha) > 1.0:
        return "hyperbolic"
    return "parabolic"


def classify_case(config: FieldConfig) -> CaseClass:
    """Sort a configuration into the solvable families.

    Pure magnetic: no (or identically zero) electrostatic part.  Pure
    electric: no magnetic part.  Proportional: v = alpha * a verified on a
    probe grid; alpha is taken from the config when declared, otherwise
    estimated from the profiles.  Everything else is unsupported.
    """
    electric_zero = config.electric is None or config.electric.is_zero()
    magnetic_zero = config.magnetic is None or config.magnetic.is_zero()
    if electric_zero and not magnetic_zero:
        return CaseClass("pure_magnetic")
    if magnetic_zero:
        return CaseClass("pure_electric")
    xs = _probe_grid(config)
    v = np.asarray(config.electric.evaluate(xs), dtype=float)
    a = np.asarray(config.magnetic.evaluate(xs), dtype=float)
    if config.proportionality is not None:
        alpha = config.proportionality
    else:
        i = int(np.argmax(np.abs(a)))
        if a[i] == 0.0:
            return CaseClass("unsupported")
        alpha = float(v[i] / a[i])
    if np.max(np.abs(v - alpha * a)) <= PROPORTIONALITY_TOL:
        return CaseClass("proportional", alpha=alpha, regime=_regime(alpha))
    return CaseClass("unsupported")


# ---------------------------------------------------------------------------
# reduced-equation building blocks
# ---------------------------------------------------------------------------


def effective_potential_electric(potential: Potential1D, epsilon: float, x):
    """Complex effective potential i v' + 2 eps v - v^2 of the decoupled
    second-order equation for the rotated component in a purely electric
    field.  Raises DiscontinuityPoint exactly at a step of the profile."""
    v = np.asarray(potential.evaluate(x))
    dv = np.asarray(potential.derivative(x))
    out = 1j * dv + 2.0 * epsilon * v - v**2
    return out if np.ndim(x) else complex(out)


def effective_energy(label: QuantumLabel) -> float:
    """Effective eigenvalue -(k^2 - eps^2) of the decoupled equation."""
    return -(label.k**2 - label.epsilon**2)
