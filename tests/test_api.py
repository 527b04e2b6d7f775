"""The public API is declared once, by each library module's __all__."""

import importlib
import pkgutil
import types

import diracwell
from diracwell.errors import SolverError

# cli is the console entry point (diracwell.cli:main); the package does not load it
LIBRARY = [m.name for m in pkgutil.iter_modules(diracwell.__path__) if m.name != "cli"]


def _exports(name):
    return getattr(importlib.import_module(f"diracwell.{name}"), "__all__", ())


def test_every_exported_name_is_a_package_attribute():
    for name in LIBRARY:
        missing = [n for n in _exports(name) if not hasattr(diracwell, n)]
        assert not missing, f"diracwell.{name} exports {missing}, which the package lacks"


def test_every_package_attribute_is_declared():
    exported = {n for name in LIBRARY for n in _exports(name)}
    stray = []
    for n in dir(diracwell):
        if n.startswith("_") or n in exported:  # __version__ included
            continue
        value = getattr(diracwell, n)
        submodule = isinstance(value, types.ModuleType) and value.__name__ == f"diracwell.{n}"
        error = isinstance(value, type) and issubclass(value, SolverError)
        if not (submodule or error):
            stray.append(n)
    assert not stray, f"package attributes that no __all__ declares: {stray}"
