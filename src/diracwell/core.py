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

PROFILES
    PiecewiseConstant steps carry the square and piecewise wells every
    route serves; Lorentzian, the one smooth family, serves the shooting
    oracle alone.  A step-free PiecewiseConstant is uniform: shooting
    takes it, and a uniform vector potential a = c shoots as momentum
    k + c.  A profile gives values and no derivative: the decoupled
    equation is checked between steps alone, where v' = 0.

UNITS
    All solver-facing quantities are in reduced form: eps = E / (hbar vF),
    v = V / (hbar vF), a = e A_y / hbar, so that eps, v, a, and k all carry
    dimension 1/length.

SOLVABLE CASES
    The equation decouples for a purely electric profile (the closed form
    and transfer route in matching, shooting in oracle), a purely magnetic
    one (landau.landau_levels_magnetic) and proportional profiles
    v = alpha * a with |alpha| < 1 (landau.landau_levels_proportional and
    oracle.proportional_oscillator_levels).  The landau module loads no
    numpy, so `diracwell landau` imports neither numpy nor this module.
    Each route refuses what it does not serve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "PiecewiseConstant",
    "Lorentzian",
    "FieldConfig",
    "QuantumLabel",
    "square_well",
    "potential_to_json",
    "potential_from_json",
]


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

    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.values)


@dataclass(frozen=True)
class Lorentzian:
    """strength / (1 + x^2); a smooth well for negative strength."""

    strength: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.strength):
            raise ConfigError(f"strength must be finite, got {self.strength}")

    def evaluate(self, x):
        out = self.strength / (1.0 + np.asarray(x, dtype=float) ** 2)
        return out if np.ndim(x) else float(out)

    def is_zero(self) -> bool:
        return self.strength == 0.0


_FAMILY_TAGS = {
    PiecewiseConstant: "piecewise_constant",
    Lorentzian: "lorentzian",
}


def square_well(v0: float, half_width: float = 1.0) -> PiecewiseConstant:
    """Electrostatic well of depth v0 on (-half_width, half_width), zero outside."""
    if not (half_width > 0 and math.isfinite(half_width)):
        raise ConfigError(f"half_width must be finite and positive, got {half_width}")
    return PiecewiseConstant((-half_width, half_width), (0.0, -v0, 0.0))


def potential_to_json(potential: PiecewiseConstant | Lorentzian) -> str:
    import json  # loaded by the JSON helpers alone, never by a CSV command

    tag = _FAMILY_TAGS[type(potential)]
    if isinstance(potential, PiecewiseConstant):
        payload = {
            "family": tag,
            "breakpoints": list(potential.breakpoints),
            "values": list(potential.values),
        }
    else:
        payload = {"family": tag, "strength": potential.strength}
    return json.dumps(payload, sort_keys=True)


def potential_from_json(text: str) -> PiecewiseConstant | Lorentzian:
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
            return PiecewiseConstant(_json_numbers(payload["breakpoints"]), _json_numbers(payload["values"]))
        if family == "lorentzian":
            return Lorentzian(_json_number(payload["strength"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed parameters for family '{family}': {exc}") from exc
    raise ConfigError(f"unknown potential family '{family}'")


def _json_number(value) -> float:
    """A JSON number as a float, by the config file's rule: a bool or a
    string is refused, and an integer passes unless it overflows a double."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError("integer overflows a double") from exc


def _json_numbers(value) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"expected an array of numbers, got {value!r}")
    return tuple(map(_json_number, value))


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

    electric: PiecewiseConstant | Lorentzian | None
    magnetic: PiecewiseConstant | Lorentzian | None = None

    def __post_init__(self) -> None:
        if self.electric is None and self.magnetic is None:
            raise ConfigError("at least one of electric/magnetic must be present")


def _binds(electric: PiecewiseConstant | None, magnetic: PiecewiseConstant | None, k: float) -> bool:
    """Whether electric and magnetic step fields, either of them None, bind
    a level at momentum k by the 1D weak-coupling rule (B. Simon, Ann.
    Phys. 97, 279 (1976)) on the decoupled equation, whose potential less
    its value at the band edges eps = v_inf +/- |W_inf|, W_inf = k + a_inf,
    integrates there to first order to A +/- 2 |W_inf| V: A sums
    (a - a_inf)(2 k + a + a_inf) and V sums v - v_inf, each times its
    step's width.  True where each profile has equal exteriors, W_inf != 0
    and A < 2 |W_inf| |V|, every sum exact (see _exact), so that no
    rounding or underflow moves the verdict; False where first order
    proves nothing."""
    if any(p is not None and p.values[0] != p.values[-1] for p in (electric, magnetic)):
        return False
    w_inf = _exact(k) + (_exact(magnetic.values[0]) if magnetic is not None else 0)
    area = sum(d * (2 * w_inf + d) * width for d, width in _offsets(magnetic))  # 2 k + a + a_inf = 2 W_inf + d
    depth = sum(d * width for d, width in _offsets(electric))
    return w_inf != 0 and area < 2 * abs(w_inf) * abs(depth)


def _offsets(profile: PiecewiseConstant | None) -> list[tuple[int, int]]:
    """Exact (value - exterior value, width) of each inner step; none for None."""
    if profile is None:
        return []
    outer, steps = _exact(profile.values[0]), profile.breakpoints
    return [(_exact(v) - outer, _exact(right) - _exact(left))
            for v, left, right in zip(profile.values[1:-1], steps, steps[1:])]


def _exact(x: float) -> int:
    """The finite double x times 2**1074, an integer: every double is a
    multiple of 2**-1074, so the product is exact."""
    n, d = x.as_integer_ratio()
    return n << (1075 - d.bit_length())

