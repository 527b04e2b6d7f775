"""The public API is declared once, by each library module's __all__."""

import ast
import dataclasses
import importlib
import importlib.util
import math
import pathlib
import pkgutil
import sys
import types

import pytest

import diracwell
from diracwell import (
    FieldConfig,
    GridSpec,
    Linear,
    PiecewiseExp,
    QuantumLabel,
    assemble_square_well_state,
    dirac_shooting,
    find_roots,
    general_secular,
    inner_product,
    landau_levels_magnetic,
    parameter_grid,
    partner_component,
    proportional_oscillator_levels,
    square_well,
    square_well_config,
    square_well_secular,
)
from diracwell import errors
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


SOURCES = sorted(pathlib.Path(diracwell.__file__).parent.glob("*.py"))


def _raised_names():
    """(module, name) of every class raised by name in the package source."""
    found = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, (ast.Name, ast.Attribute)):
                    found.add((path.stem, exc.id if isinstance(exc, ast.Name) else exc.attr))
    return found


def test_every_error_class_is_raised_and_every_raised_solver_error_is_declared():
    raised = _raised_names()
    unraised = set(errors.__all__) - {"SolverError"} - {name for _, name in raised}
    assert not unraised, f"error classes that nothing raises: {sorted(unraised)}"
    undeclared = []
    for module, name in raised:
        cls = vars(importlib.import_module(f"diracwell.{module}")).get(name)
        if isinstance(cls, type) and issubclass(cls, SolverError) and name not in errors.__all__:
            undeclared.append(f"{module}.{name}")
    assert not undeclared, f"raised SolverError classes outside errors.__all__: {undeclared}"


def _two_momenta():
    k2, k3 = (QuantumLabel(k, find_roots(square_well_secular(k, 8.0))[0]) for k in (2.0, 3.0))
    return inner_product(assemble_square_well_state(k2, 8.0, points=201),
                         assemble_square_well_state(k3, 8.0, points=201))


# each rule's refusals share one class; the messages are those of the classes folded into it
@pytest.mark.parametrize(
    "call, cls, message",
    [
        (lambda: PiecewiseExp((0.0,), g=(0.5, 0.5), a=(1.0, 1.0), b=(0.0, 0.0)),
         errors.ConfigError, "each exterior must keep one decaying term only"),
        (lambda: dirac_shooting(square_well_config(2.0), QuantumLabel(2.0, 2.5)), errors.OutsideAdmissibleBand,
         "no decaying exterior direction at some requested energy; "
         "bound states require |epsilon - v| < |k + a| on both tails"),
        (lambda: dirac_shooting(FieldConfig(electric=Linear(1.0)), QuantumLabel(2.0, 0.5)), errors.UnsupportedRegime,
         "a linear scalar potential grows without bound; no exterior decay window exists"),
        (lambda: partner_component(PiecewiseExp((0.0,), g=(1.0, 1.0), a=(1.0, 0.0), b=(0.0, 1.0)),
                                   QuantumLabel(0.0, 0.5), square_well(2.0)),
         errors.OutsideAdmissibleBand, "partner construction requires k != 0"),
        (_two_momenta, errors.UnsupportedRegime, "overlap requires equal transverse momenta, got [2.0, 3.0]"),
        (lambda: landau_levels_magnetic(1.0, -1), errors.ConfigError,
         "level index must be a non-negative integer, got -1"),
    ],
    ids=["table-exterior", "shooting-band", "shooting-linear-electric", "partner-k0",
         "overlap-momenta", "landau-level"],
)
def test_a_refusal_raises_its_rules_class_with_its_message(call, cls, message):
    with pytest.raises(SolverError) as caught:
        call()
    assert type(caught.value) is cls
    assert str(caught.value) == message


# the benchmark's per-layer tracer wraps public functions by name and counts
# find_roots' evaluations through a copy of its SecularFunction with a new f
BENCH_LAYERS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_the_benchmark_tracer_wraps_every_layer_and_restores_it(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH_LAYERS)
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)  # its dataclasses look their module up
    spec.loader.exec_module(layers)
    assert diracwell.__all__  # imports every library module
    modules = [m for n, m in sorted(vars(diracwell).items()) if isinstance(m, types.ModuleType)]
    before = [dict(vars(m)) for m in modules]
    undo = layers.Tracer().install()  # MissingLayer for a wrapped name that is gone
    wrapped = {f"{m}.{n}" for m, names in layers.WRAPPED.items() for n in names}
    assert {f"{m.__name__.removeprefix('diracwell.')}.{attr}" for m, attr, _ in undo} >= wrapped
    layers.Tracer.uninstall(undo)
    for module, names in zip(modules, before):
        assert all(vars(module)[n] is value for n, value in names.items()), module.__name__


@pytest.mark.parametrize("build", [
    pytest.param(lambda: square_well_secular(2.0, 2.0), id="closed-form"),
    pytest.param(lambda: general_secular(square_well_config(2.0), 2.0), id="transfer"),
])
def test_a_secular_function_with_a_replaced_f_finds_the_same_roots(build):
    secular = build()
    copy = dataclasses.replace(secular, f=lambda eps: secular.f(eps))
    assert find_roots(copy) == find_roots(secular)
