"""The public API is declared once, by each library module's __all__."""

import importlib
import math
import pkgutil
import types

import pytest

import diracwell
from diracwell import (
    GridSpec,
    QuantumLabel,
    dirac_shooting,
    parameter_grid,
    proportional_oscillator_levels,
    square_well_config,
)
from diracwell.errors import SolverError

# cli is the console entry point (diracwell.cli:main); the package does not load it
LIBRARY = [m.name for m in pkgutil.iter_modules(diracwell.__path__) if m.name != "cli"]


def _exports(name):
    return importlib.import_module(f"diracwell.{name}").__all__


def test_every_library_module_declares_its_exports():
    undeclared = [name for name in LIBRARY if "__all__" not in vars(importlib.import_module(f"diracwell.{name}"))]
    assert not undeclared, f"library modules without __all__: {undeclared}"


def test_every_exported_name_is_a_package_attribute():
    for name in LIBRARY:
        missing = [n for n in _exports(name) if not hasattr(diracwell, n)]
        assert not missing, f"diracwell.{name} exports {missing}, which the package lacks"


def test_every_package_attribute_is_declared():
    # vars, not dir: dir lists the exports alone
    exported = {n for name in LIBRARY for n in _exports(name)}
    stray = []
    for n, value in vars(diracwell).items():
        if n.startswith("_") or n in exported:  # __version__ included
            continue
        if not (isinstance(value, types.ModuleType) and value.__name__ == f"diracwell.{n}"):
            stray.append(n)
    assert not stray, f"package attributes that no __all__ declares: {stray}"


@pytest.mark.parametrize(
    "call",
    [
        lambda: GridSpec(0.0, math.inf, 10),
        lambda: GridSpec(1.0, 1.0, 10),
        lambda: GridSpec(0.0, 1.0, 10.5),
        lambda: GridSpec(0.0, 1.0, 2),
        lambda: proportional_oscillator_levels(math.nan, 1.0, 3),
        lambda: proportional_oscillator_levels(0.5, -1.0, 3),
        lambda: dirac_shooting(square_well_config(2.0), QuantumLabel(2.0, 0.5), x_match=7.0),
        lambda: parameter_grid(0.0, 1.0, 0.0),
    ],
    ids=["grid-bounds", "grid-order", "grid-points-type", "grid-points-few",
         "oscillator-finite", "oscillator-beta", "shooting-match-point", "parameter-step"],
)
def test_a_bad_argument_is_a_solver_error_and_a_value_error(call):
    # errors.py promises SolverError for every intentional error; ConfigError
    # is also a ValueError, which these sites raised before
    with pytest.raises(SolverError) as caught:
        call()
    assert isinstance(caught.value, ValueError)
