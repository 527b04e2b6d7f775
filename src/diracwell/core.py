"""Field profiles in reduced units and field configurations.

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

SOLVABLE CASES
    The equation decouples for a purely electric profile (the closed form
    and transfer route in matching, shooting in oracle), a purely magnetic
    one (spectrum.landau_levels_magnetic) and proportional profiles
    v = alpha * a with |alpha| < 1 (spectrum.landau_levels_proportional and
    oracle.proportional_oscillator_levels).  Each route refuses what it
    does not serve.
"""

from __future__ import annotations

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
    "square_well",
    "potential_to_json",
    "potential_from_json",
    "effective_potential_electric",
    "effective_energy",
]


# ---------------------------------------------------------------------------
# potential families
# ---------------------------------------------------------------------------


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")


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


@dataclass(frozen=True)
class Linear:
    """Linear profile slope * x; as a vector potential it encodes a uniform
    magnetic field of strength slope."""

    slope: float

    def __post_init__(self) -> None:
        _check_finite("slope", self.slope)

    def evaluate(self, x):
        out = self.slope * np.asarray(x, dtype=float)
        return out if np.ndim(x) else float(out)

    def derivative(self, x):
        out = np.full_like(np.asarray(x, dtype=float), self.slope)
        return out if np.ndim(x) else self.slope

    def is_zero(self) -> bool:
        return self.slope == 0.0


@dataclass(frozen=True)
class CoulombLike:
    """strength / |x|, singular at the origin.

    A bound-state calculation needs the optional regularization cutoff;
    with it the profile is strength / max(|x|, cutoff).
    """

    strength: float
    cutoff: float | None = None

    def __post_init__(self) -> None:
        _check_finite("strength", self.strength)
        if self.cutoff is not None and not (math.isfinite(self.cutoff) and self.cutoff > 0):
            raise ConfigError(f"cutoff must be finite and positive when given, got {self.cutoff}")

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


@dataclass(frozen=True)
class Lorentzian:
    """strength / (1 + x^2); a smooth well for negative strength."""

    strength: float

    def __post_init__(self) -> None:
        _check_finite("strength", self.strength)

    def evaluate(self, x):
        out = self.strength / (1.0 + np.asarray(x, dtype=float) ** 2)
        return out if np.ndim(x) else float(out)

    def derivative(self, x):
        xs = np.asarray(x, dtype=float)
        out = -2.0 * self.strength * xs / (1.0 + xs**2) ** 2
        return out if np.ndim(x) else float(out)

    def is_zero(self) -> bool:
        return self.strength == 0.0


@dataclass(frozen=True)
class Tanh:
    """strength * tanh(x), a smooth step between -strength and +strength."""

    strength: float

    def __post_init__(self) -> None:
        _check_finite("strength", self.strength)

    def evaluate(self, x):
        out = self.strength * np.tanh(np.asarray(x, dtype=float))
        return out if np.ndim(x) else float(out)

    def derivative(self, x):
        out = self.strength / np.cosh(np.asarray(x, dtype=float)) ** 2
        return out if np.ndim(x) else float(out)

    def is_zero(self) -> bool:
        return self.strength == 0.0


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
    if not (half_width > 0 and math.isfinite(half_width)):
        raise ConfigError(f"half_width must be finite and positive, got {half_width}")
    return PiecewiseConstant((-half_width, half_width), (0.0, -v0, 0.0))


def potential_to_json(potential: Potential1D) -> str:
    import json  # loaded by the JSON helpers alone, never by a CSV command

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
    import json

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
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantumLabel:
    """Conserved longitudinal momentum k and reduced energy eps of a state."""

    k: float
    epsilon: float


@dataclass(frozen=True)
class FieldConfig:
    """Electrostatic profile v(x) and/or vector-potential profile a(x)."""

    electric: Potential1D | None
    magnetic: Potential1D | None = None

    def __post_init__(self) -> None:
        if self.electric is None and self.magnetic is None:
            raise ConfigError("at least one of electric/magnetic must be present")


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
