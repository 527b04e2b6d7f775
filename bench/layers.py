"""Per-layer tracing from outside the package.

A traced run replaces public functions of the diracwell modules with timing
wrappers, keeps one span per call in memory, and restores the originals when
it ends.  The layers are the package's modules; `core` is not timed because
it only builds profiles and labels.  A wrapped name that no longer exists
raises `MissingLayer`, and a function that is no longer called reports zero
calls, so a refactor cannot silently empty a layer.
"""

from __future__ import annotations

import dataclasses
import re
import statistics
import subprocess
import sys
import time

import numpy as np

# module -> public functions whose calls become spans
WRAPPED = {
    "spectrum": (
        "find_roots", "sweep_k", "sweep_v0",
        "spectrum_to_csv", "branches_to_csv", "branches_to_json_payload",
    ),
    "states": (
        "assemble_square_well_state",
        "probability_density", "current_density", "pt_eigenvalue",
        "inner_product", "equation_residuals",
        "state_to_csv", "state_to_json",
    ),
    "oracle": ("shooting_bound_states", "dirac_shooting", "grid_eigenvalues"),
}

SWEEPS = {"spectrum.sweep_k", "spectrum.sweep_v0"}
SPECTRUM_SERIALIZE = {"spectrum.spectrum_to_csv", "spectrum.branches_to_csv",
                      "spectrum.branches_to_json_payload"}
STATES_DIAGNOSTICS = {"states.probability_density", "states.current_density",
                      "states.pt_eigenvalue", "states.inner_product",
                      "states.equation_residuals"}
STATES_SERIALIZE = {"states.state_to_csv", "states.state_to_json"}
SHOOTING = {"oracle.shooting_bound_states", "oracle.dirac_shooting"}

PER_LAYER = (
    ("import.diracwell_s", "s"), ("import.scipy_s", "s"), ("import.numpy_s", "s"),
    ("cli.warm_s", "s"), ("cli.cold_overhead_s", "s"),
    ("matching.secular_calls", "count"), ("matching.secular_points", "count"),
    ("matching.secular_s", "s"),
    ("spectrum.find_roots_calls", "count"), ("spectrum.find_roots_s", "s"),
    ("spectrum.roots_found", "count"), ("spectrum.points_per_root", "ratio"),
    ("spectrum.sweep_self_s", "s"), ("spectrum.collapses", "count"),
    ("spectrum.band_edge_terminations", "count"), ("spectrum.serialize_s", "s"),
    ("states.assemble_calls", "count"), ("states.assemble_s", "s"),
    ("states.diagnostics_s", "s"), ("states.serialize_s", "s"),
    ("states.bytes_out", "B"),
    ("oracle.shooting_calls", "count"), ("oracle.shooting_points", "count"),
    ("oracle.shooting_s", "s"), ("oracle.grid_s", "s"),
    ("trace.overhead_pct", "%"),
    ("wall.op_p50_s", "s"), ("wall.items_per_s", "1/s"),
)


class MissingLayer(RuntimeError):
    """A function the traced run wraps is gone from its module."""


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    size: int = 0  # points evaluated, roots returned or bytes written


class Tracer:
    """In-memory span recorder; spans nest by call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self.terminations: list[str] = []
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, size=0):
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, size)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if name == "spectrum.find_roots" or name in STATES_SERIALIZE:
            span.size = len(out)
        elif name in SWEEPS:
            self.terminations += [b.termination[1] for b in out if b.termination is not None]
        return out

    def _wrap(self, name, fn):
        if name == "spectrum.find_roots":
            def wrapper(secular, *args, **kwargs):
                return self.call(name, fn, (self._counted(secular),) + args, kwargs)
        elif name == "oracle.dirac_shooting":
            def wrapper(config, label, *args, **kwargs):
                size = int(np.size(label.epsilon))
                return self.call(name, fn, (config, label) + args, kwargs, size)
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, secular):
        """Copy of the SecularFunction whose evaluations become spans."""
        f = secular.f

        def counted(eps):
            return self.call("matching.secular", f, (eps,), {}, int(np.size(eps)))

        return dataclasses.replace(secular, f=counted)

    def install(self):
        """Wrap every function in WRAPPED wherever a diracwell module holds
        it; returns the undo list for `uninstall`."""
        modules = [m for n, m in sys.modules.items() if n == "diracwell" or n.startswith("diracwell.")]
        undo = []
        for mod_name, names in WRAPPED.items():
            mod = sys.modules.get(f"diracwell.{mod_name}")
            for fname in names:
                orig = getattr(mod, fname, None)
                if orig is None or not callable(orig):
                    self.uninstall(undo)
                    raise MissingLayer(f"diracwell.{mod_name}.{fname} is missing")
                wrapper = self._wrap(f"{mod_name}.{fname}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            undo.append((m, attr, orig))
        return undo

    @staticmethod
    def uninstall(undo):
        for m, attr, orig in reversed(undo):
            setattr(m, attr, orig)

    def _has_ancestor(self, i, names):
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name in names:
                return True
            p = self.spans[p].parent
        return False

    def metrics(self) -> dict[str, float]:
        """Layer totals over every span recorded so far."""
        out = {name: 0.0 for name, unit in PER_LAYER if not name.startswith(("import.", "cli.", "trace.", "wall."))}
        children: dict[int, float] = {}
        for i, s in enumerate(self.spans):
            dt = s.end - s.start
            if s.name == "spectrum.find_roots" and s.parent >= 0:
                children[s.parent] = children.get(s.parent, 0.0) + dt
            if s.name == "matching.secular":
                out["matching.secular_calls"] += 1
                out["matching.secular_points"] += s.size
                out["matching.secular_s"] += dt
            elif s.name == "spectrum.find_roots":
                out["spectrum.find_roots_calls"] += 1
                out["spectrum.find_roots_s"] += dt
                out["spectrum.roots_found"] += s.size
            elif s.name in SWEEPS:
                pass  # self time below, once children are known
            elif s.name in SPECTRUM_SERIALIZE:
                if not self._has_ancestor(i, SPECTRUM_SERIALIZE):
                    out["spectrum.serialize_s"] += dt
            elif s.name == "states.assemble_square_well_state":
                out["states.assemble_calls"] += 1
                out["states.assemble_s"] += dt
            elif s.name in STATES_DIAGNOSTICS:
                if not self._has_ancestor(i, STATES_DIAGNOSTICS | STATES_SERIALIZE):
                    out["states.diagnostics_s"] += dt
            elif s.name in STATES_SERIALIZE:
                out["states.serialize_s"] += dt
                out["states.bytes_out"] += s.size
            elif s.name in SHOOTING:
                if s.name == "oracle.dirac_shooting":
                    out["oracle.shooting_calls"] += 1
                    out["oracle.shooting_points"] += s.size
                if not self._has_ancestor(i, SHOOTING):
                    out["oracle.shooting_s"] += dt
            elif s.name == "oracle.grid_eigenvalues":
                if not self._has_ancestor(i, {"oracle.grid_eigenvalues"}):
                    out["oracle.grid_s"] += dt
        for i, s in enumerate(self.spans):
            if s.name in SWEEPS:
                out["spectrum.sweep_self_s"] += (s.end - s.start) - children.get(i, 0.0)
        roots = out["spectrum.roots_found"]
        out["spectrum.points_per_root"] = out["matching.secular_points"] / roots if roots else 0.0
        out["spectrum.collapses"] = float(self.terminations.count("epsilon=-k"))
        out["spectrum.band_edge_terminations"] = float(len(self.terminations)) - out["spectrum.collapses"]
        return out


IMPORT_REPEATS = 3
_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)")


def import_times(stderr: str) -> dict[str, float]:
    """Import seconds from an `-X importtime` report.

    diracwell is its cumulative time.  scipy and numpy each sum the
    cumulative time of their outermost modules, where a module nested in
    the other library's import counts for the outer one: numpy modules that
    scipy pulls in are scipy's cost, the time a lazy scipy import saves.
    """
    entries = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2)) * 1e-6))
    totals = {"diracwell": 0.0, "scipy": 0.0, "numpy": 0.0}
    libraries = ("scipy", "numpy")
    # the report lists a module after everything it imports, so walking it
    # backwards meets each parent before its children
    ancestors: list[str] = []
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth:]
        top = name.split(".")[0]
        if name == "diracwell":
            totals[top] = cumulative
        elif top in libraries and not any(a in libraries for a in ancestors):
            totals[top] += cumulative
        ancestors.append(top)
    return totals


def measure_imports(python: str, env: dict, cwd: str) -> dict[str, float]:
    """Median `-X importtime` figures of IMPORT_REPEATS fresh `import diracwell`."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import diracwell"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(import_times(proc.stderr))
    return {f"import.{k}_s": statistics.median(r[k] for r in runs) for k in runs[0]}
