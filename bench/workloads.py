"""The four workloads: seeded decks of operations with their output checks.

Every workload is closed-loop, single-process and serial: one client issues
the next operation when the previous one returns.  A deck yields its fixed
anchor cases first and then an endless seeded stream; the stream cycles
through fixed size classes so that every seed gives the same mix of costs.
An operation's `run` is the timed work; `check` runs afterwards, untimed,
against the benchmark's own reference and returns one Check per checked item.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import subprocess
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

import diracwell as dw
from diracwell import cli

from reference import (
    ROOT_TOL,
    Check,
    band,
    check_spectrum,
    collapse_depths,
    reference_spectra,
    roots_agree,
)

PT_TOL = 1e-8
GRAM_TOL = 1e-8
RESIDUAL_TOL = 1e-8
COLLAPSE_TOL = 1e-6
# shooting roots of the Lorentzian well (strength -2, k = 2) at step 0.0025,
# scan 150, tol 1e-10; the step 0.02 run must land within 1e-3 of each, the
# tolerance the test suite uses for this step
LORENTZ_ROOTS = (0.567247043628961, 1.3047949258756166, 1.6960569145959739,
                 1.8814400214923928, 1.9576664079005355)
LORENTZ_TOL = 1e-3
# the shooting oracle's RK4 error grows as (q h)^4 with the interior
# wavenumber q; below q h = 0.02 it stays under ROOT_TOL on every well here
SHOOT_QH = 0.02
# largest relative change a seeded well makes to its template's parameters
JITTER = 0.01


@dataclass
class Op:
    """One operation: a command, a sweep, one well's states or one well's routes."""

    kind: str
    params: dict
    run: Callable[[], Any]
    items: Callable[[Any], int]
    check: Callable[[Any], list[Check]]


def _u(rng, lo, hi, digits=3):
    return round(float(rng.uniform(lo, hi)), digits)


def _jitter(rng, *values):
    """Each value scaled by its own factor in [1 - JITTER, 1 + JITTER]."""
    return tuple(round(v * float(rng.uniform(1.0 - JITTER, 1.0 + JITTER)), 4) for v in values)


def _cycle(rng, classes):
    """Endless stream drawing one case per class, in shuffled rounds, so
    that every seed spends its time on the same mix of sizes."""
    while True:
        for i in rng.permutation(len(classes)):
            yield classes[i](rng)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_op(which, fixed, lo, hi, step, half_width):
    grid = dw.parameter_grid(lo, hi, step)
    name = f"sweep_{which}"

    def run():
        branches = getattr(dw, name)(fixed, grid, half_width)
        return branches, dw.branches_to_csv(branches)

    def check(out):
        branches, text = out
        checks = _sample_checks(branches, which, fixed, grid, half_width)
        checks.append(_check_branch_csv(branches, text))
        if which == "v0":
            checks.append(_check_collapses(branches, fixed, grid, half_width))
        return checks

    return Op(f"sweep_{which}", {"fixed": fixed, "range": (lo, hi, step), "L": half_width},
              run, lambda out: len(grid), check)


def _sample_checks(branches, which, fixed, grid, half_width) -> list[Check]:
    """One spectrum check per sweep sample."""
    full = np.full(len(grid), fixed)
    ks, v0s = (full, grid) if which == "v0" else (grid, full)
    refs = reference_spectra(ks, v0s, half_width)
    return [check_spectrum(dw.branch_cut(branches, p), ref, *band(k, v))
            for p, k, v, ref in zip(grid, ks, v0s, refs)]


def _check_branch_csv(branches, text) -> Check:
    rows = [line.split(",") for line in text.splitlines()[1:]]
    samples = sorted((p, b.index, e) for b in branches for p, e in zip(b.params, b.epsilons))
    parsed = [(float(p), int(i), float(e)) for p, i, e in rows if not e.startswith("termination=")]
    ends = sorted((float(p), int(i), e) for p, i, e in rows if e.startswith("termination="))
    want_ends = sorted((b.termination[0], b.index, f"termination={b.termination[1]}")
                       for b in branches if b.termination is not None)
    ok = parsed == samples and ends == want_ends
    return Check(ok, "branches_to_csv round trip" + ("" if ok else " differs"))


def _check_collapses(branches, k, grid, half_width) -> Check:
    """Collapse depths against |k| + sqrt(k^2 + (n pi / 2L)^2).

    A branch whose last root fell into the edge scan cell ends one sample
    early, and the refinement may then place its collapse up to one step
    past the sweep; that extra collapse is the known undercount.
    """
    lo, hi = float(grid[0]), float(grid[-1])
    step = hi - float(grid[-2]) if len(grid) > 1 else 0.0
    want = collapse_depths(k, lo, hi, half_width)
    beyond = collapse_depths(k, hi, hi + step, half_width)
    got = sorted(b.termination[0] for b in branches
                 if b.termination is not None and b.termination[1] == "epsilon=-k")
    detail = f"collapses at {[round(v, 7) for v in got]}, expected {[round(v, 7) for v in want]}"

    def matches(depths, values):
        return len(depths) == len(values) and all(abs(a - b) < COLLAPSE_TOL for a, b in zip(depths, values))

    if matches(want, got):
        return Check(True, detail)
    inside = [v for v in got if v <= hi]
    outside = [v for v in got if v > hi]
    if matches(want, inside) and outside and matches(beyond[:len(outside)], outside):
        return Check(False, detail + " (one past the sweep, after an edge-cell miss)", known=True)
    return Check(False, detail)


# (k, deepest v0, L) of depth sweeps and (v0, largest k, L) of momentum
# sweeps, each over 100 steps from the shallow or slow end
V0_SWEEPS = ((1.5, 5.0, 1.0), (2.5, 7.0, 0.8), (3.5, 9.0, 1.2), (2.0, 6.0, 1.5))
K_SWEEPS = ((5.0, 3.0, 1.0), (7.0, 4.0, 0.8), (9.0, 5.0, 1.2), (6.0, 6.0, 1.5))


def sweep_deck(rng) -> Iterator[Op]:
    """The paper's two sweeps, then seeded depth and momentum sweeps."""
    yield _sweep_op("v0", 3.0, 0.0, 8.0, 0.01, 1.0)
    yield _sweep_op("k", 8.0, 0.1, 6.0, 0.01, 1.0)

    def depth(template):
        def make(r):
            k, hi, L = _jitter(r, *template)
            return _sweep_op("v0", k, 0.0, hi, hi / 100, L)
        return make

    def momentum(template):
        def make(r):
            v0, hi, L = _jitter(r, *template)
            return _sweep_op("k", v0, 0.1, hi, (hi - 0.1) / 100, L)
        return make

    yield from _cycle(rng, [depth(t) for t in V0_SWEEPS] + [momentum(t) for t in K_SWEEPS])


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def _states_op(k, v0, half_width, expected):
    def run():
        roots = dw.find_roots(dw.square_well_secular(k, v0, half_width))
        states = [dw.assemble_square_well_state(dw.QuantumLabel(k, e), v0, half_width) for e in roots]
        densities = [dw.current_density(s) for s in states]
        pts = [dw.pt_eigenvalue(s) for s in states]
        gram = np.array([[dw.inner_product(a, b) for b in states] for a in states])
        residuals = [dw.equation_residuals(s).max_abs for s in states]
        csvs = [dw.state_to_csv(s) for s in states]
        jsons = [dw.state_to_json(s) for s in states]
        return roots, states, densities, pts, gram, residuals, csvs, jsons

    def check(out):
        roots, states, densities, pts, gram, residuals, csvs, jsons = out
        checks = [check_spectrum(roots, expected, *band(k, v0))]
        for i, s in enumerate(states):
            faults = []
            lam = pts[i]
            if abs(lam.real) + abs(abs(lam.imag) - 1.0) >= PT_TOL:
                faults.append(f"PT eigenvalue {lam}")
            if np.max(np.abs(gram[i] - np.eye(len(states))[i])) >= GRAM_TOL:
                faults.append("|G - I| row above tolerance")
            if residuals[i] >= RESIDUAL_TOL:
                faults.append(f"residual {residuals[i]:.2e}")
            if not _csv_matches(csvs[i], s, densities[i]):
                faults.append("CSV does not reproduce the state")
            if not _json_matches(jsons[i], s, densities[i]):
                faults.append("JSON does not reproduce the state")
            checks.append(Check(not faults, f"state {i}: " + ("; ".join(faults) or "ok")))
        return checks

    return Op("states", {"k": k, "v0": v0, "L": half_width}, run, lambda out: len(out[1]), check)


def _csv_matches(text, state, density) -> bool:
    table = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()[1:]])
    want = np.column_stack([state.x, state.psi1.real, state.psi1.imag, state.psi2.real,
                            state.psi2.imag, density.rho, density.j_y])
    return table.shape == want.shape and bool(np.array_equal(table, want))


def _json_matches(text, state, density) -> bool:
    payload = json.loads(text)
    pairs = [("x", state.x), ("re_psi1", state.psi1.real), ("im_psi1", state.psi1.imag),
             ("re_psi2", state.psi2.real), ("im_psi2", state.psi2.imag),
             ("rho", density.rho), ("jy", density.j_y)]
    return all(np.array_equal(np.asarray(payload[key]), arr) for key, arr in pairs) and (
        payload["epsilon"] == state.label.epsilon
    )


# wells holding 3, 4, ..., 10 states
STATE_WELLS = ((2.0, 3.0, 1.0), (2.5, 3.0, 1.2), (2.5, 4.0, 1.2), (3.0, 5.0, 1.1),
               (3.0, 5.5, 1.2), (3.5, 6.5, 1.25), (4.0, 7.5, 1.3), (4.0, 7.8, 1.35))


def states_deck(rng) -> Iterator[Op]:
    def well(template):
        def make(r):
            while True:  # jitter may move the count; keep 3 to 10 states
                k, v0, L = _jitter(r, *template)
                expected = reference_spectra(k, v0, L)[0]
                if 3 <= len(expected) <= 10:
                    return _states_op(k, v0, L, expected)
        return make

    yield from _cycle(rng, [well(t) for t in STATE_WELLS])


# ---------------------------------------------------------------------------
# routes
# ---------------------------------------------------------------------------


def _routes_op(k, v0, half_width):
    config = dw.square_well_config(v0, half_width)
    q_max = math.sqrt((abs(k) + v0) ** 2 - k * k)
    step = min(1e-3, SHOOT_QH / q_max)

    def run():
        closed = dw.find_roots(dw.square_well_secular(k, v0, half_width))
        general = dw.general_secular(config, k)
        transfer = dw.find_roots(general)
        shot = dw.shooting_bound_states(config, k, step=step)
        return closed, transfer, shot, (general.lo, general.hi)

    def check(out):
        closed, transfer, shot, transfer_domain = out
        expected = reference_spectra(k, v0, half_width)[0]
        kk = abs(k)
        agree = roots_agree(closed, transfer) and roots_agree(closed, shot) and roots_agree(transfer, shot)
        return [
            check_spectrum(closed, expected, *band(k, v0)),
            check_spectrum(transfer, expected, *transfer_domain),
            check_spectrum(shot, expected, -kk, kk),
            Check(agree, f"routes agree to {ROOT_TOL:g}" if agree else "routes disagree"),
        ]

    return Op("routes", {"k": k, "v0": v0, "L": half_width, "shooting_step": step}, run,
              lambda out: len(out[0]) + len(out[1]) + len(out[2]), check)


def _lorentz_op():
    config = dw.FieldConfig(electric=dw.Lorentzian(-2.0))

    def run():
        return dw.shooting_bound_states(config, 2.0, scan_points=150, tol=1e-5, step=0.02)

    def check(roots):
        ok = len(roots) == len(LORENTZ_ROOTS) and all(
            abs(a - b) < LORENTZ_TOL for a, b in zip(roots, LORENTZ_ROOTS))
        return [Check(ok, f"Lorentzian well: {len(roots)} roots, reference {len(LORENTZ_ROOTS)}")]

    return Op("routes_smooth", {"well": "Lorentzian(-2)", "k": 2.0, "step": 0.02}, run, len, check)


def _landau_op():
    beta, k, alphas, levels = 1.0, 2.0, (0.0, 0.5), 6

    def run():
        out = []
        for alpha in alphas:
            grid = dw.proportional_oscillator_levels(alpha, beta, levels)
            closed = [dw.landau_levels_magnetic(beta, n) if alpha == 0.0
                      else dw.landau_levels_proportional(alpha, beta, k, n) for n in range(levels)]
            out.append((alpha, grid, closed))
        return out

    def check(out):
        worst = 0.0
        for alpha, grid, closed in out:
            stretch = math.sqrt(1.0 - alpha * alpha)
            for n, pair in enumerate(closed):
                shift = math.sqrt(max(float(grid[n]), 0.0)) * stretch
                for f, g in zip(pair, (-alpha * k + shift, -alpha * k - shift)):
                    worst = max(worst, abs(f - g) / max(1.0, abs(f)))
        return [Check(worst < 1e-5, f"Landau levels vs grid oracle, max relative deviation {worst:.2e}")]

    return Op("routes_landau", {"beta": beta, "k": k, "alphas": alphas}, run,
              lambda out: sum(2 * len(c) for _, _, c in out), check)


# seeded wells from shallow to deep and wide, (k, v0, L)
ROUTE_WELLS = ((0.8, 1.5, 1.0), (1.5, 3.0, 1.0), (2.5, 5.0, 0.8), (3.0, 8.0, 1.2),
               (5.0, 12.0, 1.0), (6.0, 18.0, 1.5), (8.0, 25.0, 1.2), (10.0, 30.0, 1.5),
               (12.0, 35.0, 2.0), (15.0, 40.0, 1.5), (18.0, 45.0, 2.0), (20.0, 50.0, 2.5))


def routes_deck(rng) -> Iterator[Op]:
    """The documented wells (two of them with known undercounts), the smooth
    well, the Landau grid oracle, then seeded wells from shallow to deep."""
    for k, v0, half_width in ((2.0, 2.0, 1.0), (3.0, 8.0, 1.0), (50.0, 120.0, 3.0),
                              (200.0, 500.0, 5.0), (2.0, 1e-4, 1.0)):
        yield _routes_op(k, v0, half_width)
    yield _lorentz_op()
    yield _landau_op()
    yield from _cycle(rng, [lambda r, t=t: _routes_op(*_jitter(r, *t)) for t in ROUTE_WELLS])


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

ENTRY = "import sys; from diracwell.cli import main; sys.exit(main())"


def cli_main(argv) -> tuple[int, str]:
    """Run the CLI in this process; exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def _landau_text(beta, levels, alpha, k):
    lines = ["n,epsilon_plus,epsilon_minus"]
    for n in range(levels + 1):
        if alpha == 0.0:
            plus, minus = dw.landau_levels_magnetic(beta, n)
        else:
            plus, minus = dw.landau_levels_proportional(alpha, beta, k, n)
        lines.append(f"{n},{plus!r},{minus!r}")
    return "\n".join(lines) + "\n"


def _cli_op(kind, argv, check: Callable[[str], list[Check]], python: str, env: dict, cwd: str):
    """A command as a fresh process; `check` turns its stdout into checked
    items."""

    def run():
        proc = subprocess.run([python, "-c", ENTRY, *argv], env=env, cwd=cwd,
                              capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"diracwell {' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout

    return Op(kind, {"argv": argv}, run, lambda out: 1, check)


def _same_stdout(stdout, want) -> Check:
    ok = stdout == want
    return Check(ok, "stdout matches the library" if ok else "stdout differs from the library result")


def _verify_checks(stdout, k, v0, half_width) -> list[Check]:
    """verify's route line rebuilt from the library's three routes, with
    verify's own settings; the closed form against the reference; the
    three route counts against the reference count; every line a PASS."""
    config = dw.square_well_config(v0, half_width)
    closed = dw.find_roots(dw.square_well_secular(k, v0, half_width))
    transfer = dw.find_roots(dw.general_secular(config, k))
    shot = dw.shooting_bound_states(config, k, scan_points=500, tol=1e-9, step=2e-3)
    expected = reference_spectra(k, v0, half_width)[0]
    lines = stdout.splitlines()
    routes = (f"PASS  three independent routes agree on the spectrum "
              f"({len(closed)} states, routes {len(closed)}/{len(transfer)}/{len(shot)})")
    counts = len(closed) == len(transfer) == len(shot) == len(expected)
    agree = counts and roots_agree(closed, transfer) and roots_agree(closed, shot)
    passed = len(lines) > 1 and all(line.startswith("PASS  ") for line in lines)
    return [
        Check(lines[:1] == [routes], "route line matches the library routes" if lines[:1] == [routes]
              else f"route line {lines[:1]} differs from {routes!r}"),
        check_spectrum(closed, expected, *band(k, v0)),
        Check(agree, f"routes {len(closed)}/{len(transfer)}/{len(shot)} of {len(expected)} "
                     f"reference roots" + ("" if agree else ", not all agreeing to the reference")),
        Check(passed, "every check PASS" if passed else "a check did not PASS"),
    ]


def cli_deck(rng, python: str, env: dict, cwd: str) -> Iterator[Op]:
    """A seeded mix of small commands; verify runs on its default well and
    on the paper's k = 3, v0 = 8 well."""

    def well(r):
        return _u(r, 1.0, 4.0), _u(r, 1.0, 8.0), _u(r, 0.5, 1.5)

    def spectrum(r):
        k, v0, L = well(r)
        argv = ["spectrum", "--k", repr(k), "--v0", repr(v0), "--half-width", repr(L)]

        def check(stdout):
            printed = [float(line.split(",")[1]) for line in stdout.splitlines()[1:]]
            want = dw.spectrum_to_csv(dw.find_roots(dw.square_well_secular(k, v0, L)))
            return [_same_stdout(stdout, want),
                    check_spectrum(printed, reference_spectra(k, v0, L)[0], *band(k, v0))]

        return _cli_op("spectrum", argv, check, python, env, cwd)

    def state(fmt):
        def make(r):
            while True:
                k, v0, L = well(r)
                # a user picks a level the spectrum command listed
                roots = dw.find_roots(dw.square_well_secular(k, v0, L))
                if roots:
                    break
            level = int(r.integers(len(roots)))
            argv = ["state", "--k", repr(k), "--v0", repr(v0), "--half-width", repr(L),
                    "--level", str(level), "--format", fmt]

            def check(stdout):
                s = dw.assemble_square_well_state(dw.QuantumLabel(k, roots[level]), v0, L, 4001)
                return [_same_stdout(stdout, dw.state_to_csv(s) if fmt == "csv" else dw.state_to_json(s) + "\n")]

            return _cli_op(f"state_{fmt}", argv, check, python, env, cwd)
        return make

    def landau(r):
        beta, levels = _u(r, 0.5, 3.0), int(r.integers(3, 9))
        alpha = 0.0 if r.random() < 0.5 else _u(r, -0.8, 0.8)
        k = _u(r, -3.0, 3.0)
        argv = ["landau", "--beta", repr(beta), "--levels", str(levels)]
        if alpha != 0.0:
            argv += ["--alpha", repr(alpha), "--k", repr(k)]
        want = _landau_text(beta, levels, alpha, k if alpha else 0.0)
        return _cli_op("landau", argv, lambda stdout: [_same_stdout(stdout, want)], python, env, cwd)

    def sweep(which):
        def make(r):
            L = _u(r, 0.5, 1.5)
            if which == "v0":
                fixed, lo, hi = _u(r, 1.0, 4.0), 0.0, _u(r, 4.0, 8.0, 1)
            else:
                fixed, lo = _u(r, 2.0, 8.0), _u(r, 0.2, 1.0, 1)
                hi = lo + _u(r, 1.0, 3.0, 1)
            step = round((hi - lo) / 40, 4)
            grid = dw.parameter_grid(lo, hi, step)
            fixed_flag, range_flag = ("--k", "--v0") if which == "v0" else ("--v0", "--k")
            argv = [f"sweep-{which}", fixed_flag, repr(fixed), range_flag, f"{lo!r}:{hi!r}:{step!r}",
                    "--half-width", repr(L)]

            def check(stdout):
                branches = getattr(dw, f"sweep_{which}")(fixed, grid, L)
                return ([_same_stdout(stdout, dw.branches_to_csv(branches))]
                        + _sample_checks(branches, which, fixed, grid, L))

            return _cli_op(f"sweep_{which}", argv, check, python, env, cwd)
        return make

    verify_wells = itertools.cycle([((), (2.0, 2.0, 1.0)), (("--k", "3", "--v0", "8"), (3.0, 8.0, 1.0))])

    def verify(r):
        flags, checked_well = next(verify_wells)
        return _cli_op("verify", ["verify", *flags], lambda stdout: _verify_checks(stdout, *checked_well),
                       python, env, cwd)

    classes = [spectrum, spectrum, state("csv"), state("json"), landau, sweep("k"), sweep("v0"), verify]
    yield from _cycle(rng, classes)


def deck(name: str, seed: int, python: str, env: dict, cwd: str) -> Iterator[Op]:
    """A workload's operations, generated from the seed."""
    rng = np.random.default_rng(seed)
    if name == "cli-cold":
        return cli_deck(rng, python, env, cwd)
    return {"sweep": sweep_deck, "states": states_deck, "routes": routes_deck}[name](rng)


ITEM_UNIT = {"cli-cold": "commands", "sweep": "sweep points", "states": "states", "routes": "roots"}
# anchor operations, operations per round, and the seconds the anchors and
# one round take on the reference machine (2-core Xeon, numpy 2.4, scipy 1.17)
SIZES = {
    "cli-cold": (0, 8, 0.0, 4.3),
    "sweep": (2, 8, 3.2, 1.75),
    "states": (0, 8, 0.0, 4.3),
    "routes": (7, 12, 7.4, 0.78),
}
# operations replayed by the traced run, plainly and then traced
TRACE_OPS = {"cli-cold": 10, "sweep": 8, "states": 12, "routes": 12}


def planned_ops(name: str, seed: int, seconds: float, python: str, env: dict, cwd: str) -> list[Op]:
    """The anchors and as many whole rounds as fill `seconds` on the
    reference machine.  The plan depends only on the seed and `seconds`,
    never on the speed of the code, so two commits run the same operations."""
    anchors, per_round, anchor_s, round_s = SIZES[name]
    rounds = max(1, round((seconds - anchor_s) / round_s))
    ops = deck(name, seed, python, env, cwd)
    return [next(ops) for _ in range(anchors + rounds * per_round)]
