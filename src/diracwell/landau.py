"""Closed-form dispersive levels of the symmetric magnetic and
proportional fields, and the cap on the rows of a grid.

A uniform magnetic field a = beta x and proportional profiles
v = alpha a with |alpha| < 1 reduce the first-order system to a
harmonic ladder, so each level is a formula in beta, alpha, k and n.
This module needs math alone: `diracwell landau` imports it and not
numpy or the solver.  MAX_GRID_POINTS caps a parameter grid
(spectrum.parameter_grid), a sampled state (states) and the rows of
`diracwell landau`, each refused before anything is allocated.
"""

from __future__ import annotations

import math
import numbers

from .errors import ConfigError, UnsupportedRegime

__all__ = ["landau_levels_magnetic", "landau_levels_proportional"]

MAX_GRID_POINTS = 1_000_000


def landau_levels_magnetic(beta: float, n: int) -> tuple[float, float]:
    """Level pair (+sqrt(2 n beta), -sqrt(2 n beta)) of a uniform magnetic
    field; independent of k.  beta must be finite and positive and n a
    non-negative integer, not a bool; UnsupportedRegime when 2 n beta
    overflows a double."""
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ConfigError(f"beta must be finite and positive, got {beta}")
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ConfigError(f"level index must be a non-negative integer, got {n!r}")
    e = math.sqrt(2.0 * n * beta)
    if math.isinf(e):
        raise UnsupportedRegime(f"level {n} at beta={beta} overflows a double")
    return e, -e if n else 0.0


def landau_levels_proportional(
    alpha: float, beta: float, k: float, n: int
) -> tuple[float, float]:
    """Level pair -alpha k +/- (1 - alpha^2)^(3/4) sqrt(2 n beta) for
    proportional profiles v = alpha a with a = beta x, |alpha| < 1, finite
    k and beta and n as for landau_levels_magnetic."""
    for name, value in (("alpha", alpha), ("k", k)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if abs(alpha) >= 1.0:
        raise UnsupportedRegime(
            f"levels exist in closed form only for |alpha| < 1, got {alpha}"
        )
    shift = (1.0 - alpha * alpha) ** 0.75 * landau_levels_magnetic(beta, n)[0]
    return -alpha * k + shift, -alpha * k - shift
