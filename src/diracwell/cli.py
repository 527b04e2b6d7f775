"""Command-line front end.

Subcommands mirror the library: `spectrum` prints the bound-state energies
of one well, `sweep-k` / `sweep-v0` trace branches over a parameter grid,
`state` emits one sampled eigenfunction with its densities, `landau`
prints closed-form dispersive levels, and `verify` runs the built-in
cross-check battery.  Output is CSV by default, JSON with --format json,
and byte-stable across runs for fixed inputs on the same numpy build and
CPU dispatch: numpy picks its float64 kernels by CPU at run time, and some
differ in the last bit.  `spectrum` on a well of at most
closed_form.SCALAR_LEVELS levels uses no numpy, and neither do `sweep-k`
and `sweep-v0` on a sweep of at most closed_form.SCALAR_SWEEP_ROWS such
wells, so their bytes are the same on every host; the library's
find_roots, sweep_k and sweep_v0 route by the same rule and give them too.

Every subcommand but `verify` hands its result to one writer, which
formats only the chosen format.  `verify` prints one line per check row.

Each subcommand imports only what it runs.  At its top this module loads
errors and the math-only landau module, so `landau` loads neither numpy
nor the solver.  `spectrum` solves a well of at most SCALAR_LEVELS levels
with the math-only closed_form module and loads no numpy either; a
deeper well, which closed_form has already checked and counted, goes
straight to spectrum's batched kernel and imports matching, spectrum and
numpy.  `sweep-k` and `sweep-v0` parse their grid, check the well, solve
and write the branches with the math-only sweeps module.  A sweep that
the scalar kernel declines (more than SCALAR_SWEEP_ROWS rows, decided on
their count alone, or a row of more than SCALAR_LEVELS levels) goes to
spectrum's sweep_k or sweep_v0, which decline it by the same rule, and
to numpy's writers; only a sweep of at most SCALAR_SWEEP_ROWS rows with
a deeper row has its rows counted twice before the batch counts them.
The other handlers import numpy, core, matching, spectrum, states,
oracle and json inside themselves.  The closed-form handlers,
`spectrum`, `sweep-k` and `sweep-v0`, load no core.  `verify`'s route
line passes when the routes agree within _ROUTE_TOL.

Exit codes: 0 on success, 1 when verification fails, 2 for bad arguments
or configuration, including an --out file that cannot be written.

A program run: main() without argv reads sys.argv and runs as the program
(the console script, `python -m diracwell.cli`, `sys.exit(main())`).  It
turns the cyclic collector off first, as a command needs no cycle freed
and numpy's import ran about 30 collections that freed nothing.  It
registers gc.freeze with atexit, once however often it is called, so the
shutdown collections, which run with the collector off too, skip every
object alive at exit: the roughly 22k objects that numpy and the package
leave tracked, whose collections cost a command 15-20 ms.  The
interpreter still flushes stdout and stderr, and an --out file is closed
by its with block before main returns.  main(argv) does neither, nor
does importing this module, so a caller keeps its own collector and
shutdown.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import math
import os
import sys

from .errors import ConfigError, SolverError
from .landau import MAX_GRID_POINTS, landau_levels_magnetic, landau_levels_proportional

__all__ = ["main"]


def _load_config_file(path: str) -> dict:
    """The JSON object in path."""
    import json  # only --config and JSON output load it

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: malformed JSON or an integer of too many digits
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    return raw


def _config_value(action: argparse.Action, value):
    """value converted by action's type, which it must have (an integer
    passes for a float, a bool for nothing), and one of its choices."""
    kind = action.type or str
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"config key {action.dest!r} must be {kind.__name__}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config key {action.dest!r} must be one of {', '.join(action.choices)}, got {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:  # an integer past the largest double
        raise ConfigError(f"config key {action.dest!r} overflows a double, got {value!r}") from exc


def _parse_with_config(parser: argparse.ArgumentParser, argv, args) -> argparse.Namespace:
    """argv parsed again with the config file's values as the defaults of
    the chosen subcommand, so that flags still win.  A key is unknown when
    no subcommand has an option of that name."""
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    chosen = subs.choices[args.command]
    raw = _load_config_file(args.config)
    known = {a.dest for sub in subs.choices.values() for a in sub._actions} - {"help", "config"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"config file {args.config} has unknown keys: {', '.join(unknown)}")
    chosen.set_defaults(**{a.dest: _config_value(a, raw[a.dest]) for a in chosen._actions if a.dest in raw})
    return parser.parse_args(argv)


def _require(args: argparse.Namespace, name: str):
    value = getattr(args, name)
    if value is None:
        raise ConfigError(f"missing required option --{name.replace('_', '-')}")
    return value


def _parse_range(text: str) -> list[float]:
    """The grid of a 'lo:hi:step' range: spectrum.parameter_grid's points,
    as a list (sweeps.parameter_grid)."""
    from .sweeps import parameter_grid

    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must look like lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"range has a non-numeric part: {text!r}") from exc
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ConfigError(f"range parts must be finite, got {text!r}")
    if step <= 0 or hi < lo:
        raise ConfigError(f"range needs hi >= lo and step > 0, got {text!r}")
    return parameter_grid(lo, hi, step)


def _json(payload) -> str:
    import json

    return json.dumps(payload, sort_keys=True)


def _write(args, formats: dict) -> int:
    """The text of the chosen format, and only that one, on stdout or in
    the --out file; formats maps each format to the call that builds it.
    A JSON text is written and then its newline, not copied to append it."""
    texts = (formats[args.format](), "\n" if args.format == "json" else "")
    if args.out is None:
        sys.stdout.writelines(texts)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(texts)
    except OSError as exc:
        raise ConfigError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_spectrum(args) -> dict:
    from .closed_form import spectrum_to_csv, square_well_levels

    k, v0 = _require(args, "k"), _require(args, "v0")
    roots = square_well_levels(k, v0, args.half_width)
    if roots is None:  # more than SCALAR_LEVELS levels, all valid: the batched kernel, with numpy
        from .spectrum import _square_well_levels

        roots = _square_well_levels([k], [v0], args.half_width)[2].tolist()
    payload = {"k": k, "v0": v0, "half_width": args.half_width, "roots": roots}
    return {"csv": lambda: spectrum_to_csv(roots), "json": lambda: _json(payload)}


def _cmd_sweep(args) -> dict:
    from . import sweeps

    fixed_name = {"k": "v0", "v0": "k"}[args.swept]
    fixed = _require(args, fixed_name)
    grid = _parse_range(_require(args, args.swept))
    branches, writers = sweeps.sweep(args.swept, fixed, grid, args.half_width), sweeps
    if branches is None:  # declined by the scalar kernel: the library's batch, with numpy
        from . import spectrum as writers

        branches = (writers.sweep_k if args.swept == "k" else writers.sweep_v0)(fixed, grid, args.half_width)
    return {
        "csv": lambda: writers.branches_to_csv(branches),
        "json": lambda: _json({"fixed": {fixed_name: fixed}, "half_width": args.half_width,
                               "branches": writers.branches_to_json_payload(branches)}),
    }


def _cmd_state(args) -> dict:
    from .core import QuantumLabel
    from .matching import square_well_secular
    from .spectrum import find_roots

    k, v0 = _require(args, "k"), _require(args, "v0")
    epsilon, level = args.epsilon, args.level
    if (epsilon is None) == (level is None):
        raise ConfigError("give exactly one of --epsilon or --level")
    if epsilon is None:
        roots = find_roots(square_well_secular(k, v0, args.half_width))
        if not 0 <= level < len(roots):
            raise ConfigError(
                f"level {level} out of range; this well holds {len(roots)} bound states"
            )
        epsilon = roots[level]
    from . import states  # only state and verify run it

    state = states.assemble_square_well_state(
        QuantumLabel(k=k, epsilon=float(epsilon)), v0, args.half_width, args.points
    )
    return {"csv": lambda: states.state_to_csv(state), "json": lambda: states.state_to_json(state)}


def _cmd_landau(args) -> dict:
    beta = _require(args, "beta")
    levels, alpha, k = args.levels, args.alpha, args.k
    if levels < 0:
        raise ConfigError(f"levels must be non-negative, got {levels}")
    if levels >= MAX_GRID_POINTS:  # refused before any row is built
        raise ConfigError(f"levels must be below {MAX_GRID_POINTS}, got {levels}")
    if not math.isfinite(k):  # the magnetic ladder ignores k but prints it
        raise ConfigError(f"k must be finite, got {k}")
    rows = [(n, *(landau_levels_magnetic(beta, n) if alpha == 0.0
                  else landau_levels_proportional(alpha, beta, k, n))) for n in range(levels + 1)]
    return {
        "csv": lambda: "".join(["n,epsilon_plus,epsilon_minus\n"] + [f"{n},{p!r},{m!r}\n" for n, p, m in rows]),
        "json": lambda: _json({"alpha": alpha, "beta": beta, "k": k,
                               "levels": [{"n": n, "plus": p, "minus": m} for n, p, m in rows]}),
    }


def _pt_check(states) -> tuple[bool, str]:
    from .states import pt_eigenvalue
    try:
        worst = max(0.0, *(abs(abs(lam.imag) - 1.0) + abs(lam.real) for lam in map(pt_eigenvalue, states)))
    except SolverError as exc:
        return False, str(exc)
    return worst < 1e-8, f"max |lambda -/+ i| defect {worst:.2e}"


def _gram_check(states) -> tuple[bool, str]:
    import numpy as np

    from .states import gram_matrix
    defect = float(np.max(np.abs(gram_matrix(states) - np.eye(len(states)))))
    return defect < 1e-8, f"max |G - I| {defect:.2e}"


def _residual_check(states) -> tuple[bool, str]:
    from .states import equation_residuals
    worst = max(equation_residuals(s).max_abs for s in states)
    return worst < 1e-8, f"max residual {worst:.2e}"


def _density_check(states) -> tuple[bool, str]:
    import numpy as np

    from .states import current_density
    norm = max(abs(s.norm - 1.0) for s in states)
    bound = max(0.0, *(float(np.max(np.abs(d.j_y) - d.rho)) for d in map(current_density, states)))
    return norm < 1e-12 and bound <= 1e-12, f"norm defect {norm:.2e}, |jy|-rho max {bound:.2e}"


# the route line's bound on |closed - transfer| and |closed - shot|: over
# the wells of tests/data/verify_deck.json the transfer route lies within
# 2.8e-12 of the closed form and the shot, at tol 1e-9 and its step,
# within 2.6e-9, while a closed root moved by 1e-7 fails the line
_ROUTE_TOL = 1e-8

# the checks that need at least one state; a well without states passes each
_STATE_CHECKS = (
    ("reflection-conjugation eigenvalues are +/-i", _pt_check),
    ("bound states are orthonormal", _gram_check),
    ("sampled states satisfy the first-order system", _residual_check),
    ("densities normalized and current bounded by density", _density_check),
)


def _checks(k: float, v0: float, half_width: float):
    """The battery's (name, ok, detail) rows, each computed when asked for."""
    import numpy as np

    from . import oracle, states
    from .core import QuantumLabel
    from .matching import general_secular, square_well_config, square_well_secular
    from .spectrum import find_roots

    config = square_well_config(v0, half_width)
    closed = find_roots(square_well_secular(k, v0, half_width))
    transfer = find_roots(general_secular(config, k))
    # the RK4 phase error adds up over the 2L / h steps to about
    # 2L q (q h)^4 / 120, q the deepest interior wavenumber: q h is held
    # where that is 1e-10; stepwise powers cost the same at any step count
    q_max = math.sqrt((abs(k) + abs(v0)) ** 2 - k * k)
    step = 2e-3
    if q_max > 0.0:
        step = min(step, min(0.02, (1.2e-8 / (2.0 * half_width * q_max)) ** 0.25) / q_max)
    shot = oracle.shooting_bound_states(config, k, tol=1e-9, step=step)
    agree = len(closed) == len(transfer) == len(shot) and all(
        abs(a - b) < _ROUTE_TOL for other in (transfer, shot) for a, b in zip(closed, other))
    counts = f"{len(closed)} states, routes {len(closed)}/{len(transfer)}/{len(shot)}"
    yield "three independent routes agree on the spectrum", agree, counts
    found = [states.assemble_square_well_state(QuantumLabel(k=k, epsilon=e), v0, half_width, 2001) for e in closed]
    conj = max((float(np.max(np.abs(s.psi2 - np.conj(s.psi1)))) for s in found), default=0.0)
    yield "rotated components are conjugate after phase fixing", conj < 1e-10, f"max defect {conj:.2e}"
    for name, check in _STATE_CHECKS:
        yield (name, *check(found)) if found else (name, True, "no states")


def _cmd_verify(args) -> int:
    failures = []
    for name, ok, detail in _checks(args.k, args.v0, args.half_width):
        print(f"{'PASS' if ok else 'FAIL'}  {name} ({detail})")
        if not ok:
            failures.append(name)
    if failures:
        print(f"verification failed: {len(failures)} check(s) failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _well(swept: str | None = None, default: float | None = None) -> list:
    """--k and --v0, the swept one last as a range string, then --half-width."""
    fixed = {"type": float, "default": default}
    names = sorted(("k", "v0"), key=lambda name: name == swept)
    options = [(f"--{name}", {"help": "range lo:hi:step"} if name == swept else fixed) for name in names]
    return options + [("--half-width", {"type": float, "default": 1.0})]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracwell",
        description="Bound states of gated graphene wells in reduced units.",
    )
    parser.add_argument("--config", default=None,
                        help="JSON file with option defaults")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help: str, run, options: list, output: bool = True, **defaults) -> None:
        sub = subs.add_parser(name, help=help)
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
        # SUPPRESS keeps a --config given before the subcommand from being
        # clobbered by the subparser default
        sub.add_argument("--config", default=argparse.SUPPRESS,
                         help="JSON file with option defaults")
        if output:
            sub.add_argument("--format", choices=("csv", "json"), default="csv")
            sub.add_argument("--out", help="output path (stdout when omitted)")
        sub.set_defaults(func=(lambda args: _write(args, run(args))) if output else run, **defaults)

    add("spectrum", "bound-state energies of one well", _cmd_spectrum, _well())
    add("sweep-k", "trace branches over transverse momentum", _cmd_sweep, _well("k"), swept="k")
    add("sweep-v0", "trace branches over well depth", _cmd_sweep, _well("v0"), swept="v0")
    add("state", "one sampled eigenfunction with densities", _cmd_state, _well() + [
        ("--epsilon", {"type": float, "help": "energy of a known root"}),
        ("--level", {"type": int, "help": "state number, lowest energy first"}),
        ("--points", {"type": int, "default": 4001}),
    ])
    add("landau", "closed-form dispersive levels", _cmd_landau, [
        ("--beta", {"type": float}),
        ("--levels", {"type": int, "default": 5, "help": "highest level index to print"}),
        ("--alpha", {"type": float, "default": 0.0, "help": "scalar/vector proportionality"}),
        ("--k", {"type": float, "default": 0.0}),
    ])
    add("verify", "run the built-in cross-check battery", _cmd_verify, _well(default=2.0), output=False)
    return parser


def main(argv=None) -> int:
    if argv is None:  # the program: no cyclic collection, its heap frozen at exit (see the module docstring)
        gc.disable()
        atexit.unregister(gc.freeze)
        atexit.register(gc.freeze)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            args = _parse_with_config(parser, argv, args)
        return args.func(args)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # reader went away mid-stream (e.g. piping into head); not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
