"""Command-line front end.

Subcommands mirror the library: `spectrum` prints the bound-state energies
of one well, `sweep-k` / `sweep-v0` trace branches over a parameter grid,
`state` emits one sampled eigenfunction with its densities, `landau`
prints closed-form dispersive levels, and `verify` runs the built-in
cross-check battery.  Output is CSV by default, JSON with --format json,
and byte-stable across runs for fixed inputs.

Exit codes: 0 on success, 1 when verification fails, 2 for bad arguments
or configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .core import QuantumLabel
from .errors import ConfigError, SolverError, VerificationFailure
from .matching import general_secular, square_well_secular, square_well_config
from .oracle import shooting_bound_states
from .spectrum import (
    MAX_GRID_POINTS,
    branches_to_csv,
    branches_to_json_payload,
    find_roots,
    landau_levels_magnetic,
    landau_levels_proportional,
    parameter_grid,
    spectrum_to_csv,
    sweep_k,
    sweep_v0,
)
from .states import (
    assemble_square_well_state,
    current_density,
    equation_residuals,
    gram_matrix,
    pt_eigenvalue,
    state_to_csv,
    state_to_json,
)

__all__ = ["main"]


def _load_config_file(path: str) -> dict:
    """The JSON object in path."""
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


def _parse_range(text: str) -> np.ndarray:
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


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_spectrum(args) -> int:
    k, v0 = _require(args, "k"), _require(args, "v0")
    roots = find_roots(square_well_secular(k, v0, args.half_width))
    if args.format == "csv":
        text = spectrum_to_csv(roots)
    else:
        payload = {"k": k, "v0": v0, "half_width": args.half_width, "roots": roots}
        text = json.dumps(payload, sort_keys=True) + "\n"
    _emit(text, args.out)
    return 0


def _sweep_common(args, which: str) -> int:
    if which == "k":
        fixed = _require(args, "v0")
        params = _parse_range(_require(args, "k"))
        branches = sweep_k(fixed, params, args.half_width)
    else:
        fixed = _require(args, "k")
        params = _parse_range(_require(args, "v0"))
        branches = sweep_v0(fixed, params, args.half_width)
    if args.format == "csv":
        text = branches_to_csv(branches)
    else:
        payload = {
            "fixed": {"v0" if which == "k" else "k": fixed},
            "half_width": args.half_width,
            "branches": branches_to_json_payload(branches),
        }
        text = json.dumps(payload, sort_keys=True) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_sweep_k(args) -> int:
    return _sweep_common(args, "k")


def _cmd_sweep_v0(args) -> int:
    return _sweep_common(args, "v0")


def _cmd_state(args) -> int:
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
    state = assemble_square_well_state(
        QuantumLabel(k=k, epsilon=float(epsilon)), v0, args.half_width, args.points
    )
    text = state_to_csv(state) if args.format == "csv" else state_to_json(state) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_landau(args) -> int:
    beta = _require(args, "beta")
    levels, alpha, k = args.levels, args.alpha, args.k
    if levels < 0:
        raise ConfigError(f"levels must be non-negative, got {levels}")
    if levels >= MAX_GRID_POINTS:  # refused before any row is built
        raise ConfigError(f"levels must be below {MAX_GRID_POINTS}, got {levels}")
    if not math.isfinite(k):  # the magnetic ladder ignores k but prints it
        raise ConfigError(f"k must be finite, got {k}")
    rows = []
    for n in range(levels + 1):
        if alpha == 0.0:
            plus, minus = landau_levels_magnetic(beta, n)
        else:
            plus, minus = landau_levels_proportional(alpha, beta, k, n)
        rows.append((n, plus, minus))
    if args.format == "csv":
        lines = ["n,epsilon_plus,epsilon_minus"]
        lines += [f"{n},{p!r},{m!r}" for n, p, m in rows]
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "alpha": alpha,
            "beta": beta,
            "k": k,
            "levels": [{"n": n, "plus": p, "minus": m} for n, p, m in rows],
        }
        text = json.dumps(payload, sort_keys=True) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    k, v0, half_width = args.k, args.v0, args.half_width
    failures = []

    def report(name: str, ok: bool, detail: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {name} ({detail})")
        if not ok:
            failures.append(name)

    config = square_well_config(v0, half_width)
    closed = find_roots(square_well_secular(k, v0, half_width))
    transfer = find_roots(general_secular(config, k))
    # the RK4 error grows as (q h)^4 with the deepest interior wavenumber q
    q_max = math.sqrt((abs(k) + abs(v0)) ** 2 - k * k)
    step = min(2e-3, 0.02 / q_max) if q_max > 0.0 else 2e-3
    shot = shooting_bound_states(config, k, tol=1e-9, step=step)
    agree = (
        len(closed) == len(transfer) == len(shot)
        and all(abs(a - b) < 1e-5 for a, b in zip(closed, transfer))
        and all(abs(a - b) < 1e-5 for a, b in zip(closed, shot))
    )
    report(
        "three independent routes agree on the spectrum",
        agree,
        f"{len(closed)} states, routes {len(closed)}/{len(transfer)}/{len(shot)}",
    )

    states = [
        assemble_square_well_state(QuantumLabel(k=k, epsilon=e), v0, half_width, 2001)
        for e in closed
    ]

    conj = max(float(np.max(np.abs(s.psi2 - np.conj(s.psi1)))) for s in states) if states else 0.0
    report("rotated components are conjugate after phase fixing", conj < 1e-10, f"max defect {conj:.2e}")

    pt_ok, pt_detail = True, "no states"
    if states:
        worst = 0.0
        try:
            for s in states:
                lam = pt_eigenvalue(s)
                worst = max(worst, abs(abs(lam.imag) - 1.0) + abs(lam.real))
            pt_detail = f"max |lambda -/+ i| defect {worst:.2e}"
            pt_ok = worst < 1e-8
        except SolverError as exc:
            pt_ok, pt_detail = False, str(exc)
    report("reflection-conjugation eigenvalues are +/-i", pt_ok, pt_detail)

    gram_ok, gram_detail = True, "no states"
    if states:
        defect = float(np.max(np.abs(gram_matrix(states) - np.eye(len(states)))))
        gram_ok, gram_detail = defect < 1e-8, f"max |G - I| {defect:.2e}"
    report("bound states are orthonormal", gram_ok, gram_detail)

    res_ok, res_detail = True, "no states"
    if states:
        worst = max(equation_residuals(s).max_abs for s in states)
        res_ok, res_detail = worst < 1e-8, f"max residual {worst:.2e}"
    report("sampled states satisfy the first-order system", res_ok, res_detail)

    den_ok, den_detail = True, "no states"
    if states:
        norm_defect = max(abs(s.norm - 1.0) for s in states)
        bound_defect = 0.0
        for s in states:
            d = current_density(s)
            bound_defect = max(bound_defect, float(np.max(np.abs(d.j_y) - d.rho)))
        den_ok = norm_defect < 1e-12 and bound_defect <= 1e-12
        den_detail = f"norm defect {norm_defect:.2e}, |jy|-rho max {bound_defect:.2e}"
    report("densities normalized and current bounded by density", den_ok, den_detail)

    if failures:
        raise VerificationFailure(f"{len(failures)} check(s) failed: {', '.join(failures)}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub) -> None:
    # SUPPRESS keeps a --config given before the subcommand from being
    # clobbered by the subparser default
    sub.add_argument("--config", default=argparse.SUPPRESS,
                     help="JSON file with option defaults")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", help="output path (stdout when omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracwell",
        description="Bound states of gated graphene wells in reduced units.",
    )
    parser.add_argument("--config", default=None,
                        help="JSON file with option defaults")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="bound-state energies of one well")
    sp.add_argument("--k", type=float)
    sp.add_argument("--v0", type=float)
    sp.add_argument("--half-width", type=float, dest="half_width", default=1.0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_spectrum)

    sk = subs.add_parser("sweep-k", help="trace branches over transverse momentum")
    sk.add_argument("--v0", type=float)
    sk.add_argument("--k", help="range lo:hi:step")
    sk.add_argument("--half-width", type=float, dest="half_width", default=1.0)
    _add_common(sk)
    sk.set_defaults(func=_cmd_sweep_k)

    sv = subs.add_parser("sweep-v0", help="trace branches over well depth")
    sv.add_argument("--k", type=float)
    sv.add_argument("--v0", help="range lo:hi:step")
    sv.add_argument("--half-width", type=float, dest="half_width", default=1.0)
    _add_common(sv)
    sv.set_defaults(func=_cmd_sweep_v0)

    st = subs.add_parser("state", help="one sampled eigenfunction with densities")
    st.add_argument("--k", type=float)
    st.add_argument("--v0", type=float)
    st.add_argument("--half-width", type=float, dest="half_width", default=1.0)
    st.add_argument("--epsilon", type=float, help="energy of a known root")
    st.add_argument("--level", type=int, help="state number, lowest energy first")
    st.add_argument("--points", type=int, default=4001)
    _add_common(st)
    st.set_defaults(func=_cmd_state)

    ld = subs.add_parser("landau", help="closed-form dispersive levels")
    ld.add_argument("--beta", type=float)
    ld.add_argument("--levels", type=int, default=5, help="highest level index to print")
    ld.add_argument("--alpha", type=float, default=0.0, help="scalar/vector proportionality")
    ld.add_argument("--k", type=float, default=0.0)
    _add_common(ld)
    ld.set_defaults(func=_cmd_landau)

    vf = subs.add_parser("verify", help="run the built-in cross-check battery")
    vf.add_argument("--k", type=float, default=2.0)
    vf.add_argument("--v0", type=float, default=2.0)
    vf.add_argument("--half-width", type=float, dest="half_width", default=1.0)
    vf.add_argument("--config", default=argparse.SUPPRESS,
                    help="JSON file with option defaults")
    vf.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            args = _parse_with_config(parser, argv, args)
        return args.func(args)
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # reader went away mid-stream (e.g. piping into head); not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
