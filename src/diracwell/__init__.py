"""Bound states of gated graphene wells in reduced units.

The library models quasiparticles governed by a two-component first-order
system in one effective dimension: a scalar potential well that is
translation invariant along the second axis traps states labeled by the
conserved transverse momentum.  Closed-form matching gives the square-well
spectrum and eigenfunctions; generic piecewise wells, smooth wells, and
uniform or proportional field combinations are covered by transfer
matching, shooting, and grid cross-checks.

`import diracwell` loads none of the modules: the first public name used
imports every library module and binds each one's __all__ here.
"""

__version__ = "0.1.0"

# each library module's __all__ is the public API; cli is the console entry point
_LIBRARY = ("core", "errors", "matching", "oracle", "spectrum", "states")


def __getattr__(name: str):
    # submodule and private names fall through, so `from . import states` loads states alone
    if name == "__all__" or not (name.startswith("_") or name in (*_LIBRARY, "cli")):
        import importlib

        exported = []
        for module in (importlib.import_module(f"{__name__}.{m}") for m in _LIBRARY):
            globals().update({n: getattr(module, n) for n in module.__all__})
            exported += module.__all__
        globals()["__all__"] = exported
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(__getattr__("__all__"))
