"""Sweeps by the scalar kernel: closed_form.square_well_rows against the
batched kernel, spectrum._square_well_levels, bit for bit and refusal for
refusal where numpy's float64 kernels are libm's (numpy without AVX-512,
in a fresh interpreter); each row of a routed sweep against find_roots on
that row at the host's dispatch; the routing of the library and the CLI
at SCALAR_SWEEP_ROWS rows and SCALAR_LEVELS levels; and the math-only
grid, branch builder and writers of sweeps against spectrum's."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from diracwell import (
    SpectrumBranch,
    branch_cut,
    branches_to_csv,
    branches_to_json_payload,
    closed_form,
    find_roots,
    matching,
    parameter_grid,
    spectrum,
    square_well_secular,
    sweep_k,
    sweep_v0,
    sweeps,
)
from diracwell.cli import main
from diracwell.closed_form import SCALAR_LEVELS, SCALAR_SWEEP_ROWS
from diracwell.errors import ConfigError, SolverError
from diracwell.landau import MAX_GRID_POINTS
from test_cli import NO_X86_V4, src_env
from test_closed_form import near_the_limit, scalar_kernel
from test_spectrum import branch_lists


def scalar_rows(ks, v0s, half_width):
    """square_well_rows on rows of any count and depth."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(closed_form, "SCALAR_LEVELS", MAX_GRID_POINTS)
        patch.setattr(closed_form, "SCALAR_SWEEP_ROWS", MAX_GRID_POINTS)
        return closed_form.square_well_rows(ks, v0s, half_width)


def batched_rows(ks, v0s, half_width):
    return [v.tolist() for v in spectrum._square_well_levels(np.array(ks), np.array(v0s), half_width)]


def outcome(solve, sweep):
    """(rows, n, root bits) of a sweep's levels, or the refusal's class and text."""
    try:
        rows, ns, roots = solve(*sweep)
    except SolverError as refusal:
        return type(refusal).__name__, str(refusal)
    return rows, ns, [r.hex() for r in roots]


# rows (k, v0) refused over several rows, and an order the batch keeps: a
# phase that is not finite before one that reaches past distinct doubles,
# each of these before a weak binding, and that before too many levels
REFUSED_SWEEPS = [
    ([1.0, 1.0, 1.0, 1.0, 1.0], [1e-10, 3.0, -1e-10, 0.0, 2e-10], 1.0),  # 3 weak bindings
    ([2.0, 2.0, 2.0], [1e7, 3.0, 1e8], 1.0),  # phase rounding over two rows
    ([1e9, 2.0, 1.5e9], [1e-4, 3.0, 1e-4], 1.0),  # ties over two rows
    ([2.0, 1e300], [1e17, 1e300], 1.0),  # not finite, after a row that reaches 2e17
    ([2.0, 1.0], [1e17, 1e-10], 1.0),  # reach before a weak binding
    ([2.0, 2.0, 2.0], [3.0, 1e17, 3e17], 1.0),  # the largest reach of two rows
    ([1.0, 1.0, 2.0], [1e-10, 3.0, 1e7], 1.0),  # a weak binding before phase rounding
    ([1.0] * 10, [3.0] * 10, 1e5),  # 1,362,970 levels in all, 136,297 a row
    ([1.0, 1.0], [3.0, 1e-10], 1e7),  # a weak binding before too many levels
]


def drawn_sweeps(seed=53):
    """Seeded (ks, v0s, half_width) sweeps of 1 to SCALAR_SWEEP_ROWS rows:
    depth sweeps from 0 and over barriers, momentum sweeps crossing 0 at
    either sign of v0, the same grids shuffled with repeated values, and
    sweeps whose rows hold about SCALAR_LEVELS levels."""
    rng = np.random.default_rng(seed)
    sweeps = []
    for i in range(150):  # every row count from 1 to SCALAR_SWEEP_ROWS
        n, k, hi, half_width = 1 + i % SCALAR_SWEEP_ROWS, rng.uniform(-4.0, 4.0), rng.uniform(1.0, 30.0), \
            rng.uniform(0.3, 2.0)
        sweeps.append(([k] * n, (hi / n * np.arange(n)).tolist(), half_width))  # from v0 = 0
        sweeps.append(([k] * n, (-hi / n * np.arange(1, n + 1)).tolist(), half_width))  # barriers
        v0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 15.0)
        lo = -rng.uniform(0.1, 6.0)
        sweeps.append(((lo + (rng.uniform(0.1, 6.0) - lo) / n * np.arange(n)).tolist(), [v0] * n, half_width))
    for ks, v0s, half_width in sweeps[:150]:
        at = rng.integers(0, len(ks), len(ks))  # shuffled, with repeats
        sweeps.append(([ks[i] for i in at], [v0s[i] for i in at], half_width))
    for k, v0, half_width in near_the_limit(rng, 40):
        n = int(rng.integers(1, SCALAR_SWEEP_ROWS + 1))
        sweeps.append(([k] * n, (v0 * rng.uniform(0.5, 1.05, n)).tolist(), half_width))
    return sweeps


def mismatches(sweeps) -> list[str]:
    """The sweeps whose two outcomes differ, one line each."""
    lines = []
    for sweep in sweeps:
        scalar, batched = outcome(scalar_rows, sweep), outcome(batched_rows, sweep)
        if scalar != batched:
            lines.append(f"{sweep}: scalar {scalar}, batched {batched}")
    return lines


class TestAgainstTheBatchedKernel:
    def test_the_draw_spans_the_rows_barriers_and_refusals(self):
        sweeps = drawn_sweeps()
        assert {1, SCALAR_SWEEP_ROWS} <= {len(ks) for ks, _, _ in sweeps}
        kinds = {outcome(scalar_rows, sweep)[0] for sweep in REFUSED_SWEEPS}
        assert kinds == {"UnsupportedRegime"}
        texts = [outcome(scalar_rows, sweep)[1] for sweep in REFUSED_SWEEPS]
        assert texts[0].startswith("3 well(s)") and texts[1].startswith("phase rounding moves 7")
        assert "not finite" in texts[3] and "reaches 2e+17" in texts[4] and "reaches 6e+17" in texts[5]
        assert "1362970 levels" in texts[7]
        ns = [n for sweep in sweeps[:300] for n in scalar_rows(*sweep)[1]]
        assert min(ns) < 0 <= max(ns)  # mirrored rows among them

    def test_bit_for_bit_and_refusal_for_refusal_without_avx512(self):
        script = ("import json, sys\n"
                  f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
                  "import test_sweeps as t\n"
                  "sweeps = t.REFUSED_SWEEPS + t.drawn_sweeps()\n"
                  "print(json.dumps([len(sweeps), t.mismatches(sweeps)]))\n")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**src_env(), "NPY_DISABLE_CPU_FEATURES": NO_X86_V4})
        assert result.returncode == 0, result.stderr
        count, differ = json.loads(result.stdout.splitlines()[-1])
        assert count >= 600
        assert differ == []

    def test_each_row_of_a_routed_sweep_is_find_roots_on_that_row(self):
        # at any dispatch: find_roots solves each row with the same scalar kernel
        checked = 0
        for ks, v0s, half_width in drawn_sweeps()[:450]:
            swept, fixed, grid = ("k", v0s[0], ks) if len(set(v0s)) == 1 < len(ks) else ("v0", ks[0], v0s)
            try:
                rows = [find_roots(square_well_secular(k, v0, half_width)) for k, v0 in zip(ks, v0s)]
            except SolverError:
                continue
            if max(map(len, rows)) > SCALAR_LEVELS:
                continue
            branches = (sweep_k if swept == "k" else sweep_v0)(fixed, grid, half_width)
            assert [branch_cut(branches, p) for p in grid] == rows
            checked += len(rows)
        assert checked > 5000


def counted(monkeypatch):
    """Lists that grow with each scalar and each batched phase call."""
    scalar_calls, batched_calls = [], []
    scalar, batched = closed_form._phase, spectrum._square_well_phase_slope
    monkeypatch.setattr(closed_form, "_phase", lambda *args: scalar_calls.append(1) or scalar(*args))
    monkeypatch.setattr(spectrum, "_square_well_phase_slope",
                        lambda *args: batched_calls.append(1) or batched(*args))
    return scalar_calls, batched_calls


def run_cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestRouting:
    """The library's sweeps and the CLI take the scalar kernel for at most
    SCALAR_SWEEP_ROWS rows of at most SCALAR_LEVELS levels each and the
    batch otherwise, and give the same branches and bytes."""

    @pytest.mark.parametrize("rows", [SCALAR_SWEEP_ROWS, SCALAR_SWEEP_ROWS + 1])
    def test_the_row_count_picks_the_kernel(self, monkeypatch, capsys, rows):
        grid = parameter_grid(0.0, (rows - 1) * 0.125, 0.125)
        assert grid.size == rows
        scalar_calls, batched_calls = counted(monkeypatch)
        branches = sweep_v0(2.5, grid)
        assert (len(scalar_calls) > 0, len(batched_calls) > 0) == (rows <= SCALAR_SWEEP_ROWS, rows > SCALAR_SWEEP_ROWS)
        del scalar_calls[:], batched_calls[:]
        out = run_cli(capsys, "sweep-v0", "--k", "2.5", "--v0", f"0:{(rows - 1) * 0.125!r}:0.125")
        # a longer sweep is declined on its count alone, before any phase call
        assert (len(scalar_calls) > 0, len(batched_calls) > 0) == (rows <= SCALAR_SWEEP_ROWS, rows > SCALAR_SWEEP_ROWS)
        assert out == branches_to_csv(branches)

    @pytest.mark.parametrize("offset", [0, 1])
    def test_the_deepest_row_picks_the_kernel(self, monkeypatch, capsys, offset):
        k, v0, half_width = next(w for w in near_the_limit(np.random.default_rng(52), 500)
                                 if len(scalar_kernel(*w)) == SCALAR_LEVELS + offset)
        grid = [0.0, v0]  # an empty band, then the well
        scalar_calls, batched_calls = counted(monkeypatch)
        branches = sweep_v0(k, grid, half_width)
        assert len(branch_cut(branches, v0)) == SCALAR_LEVELS + offset
        # a deeper row is declined after the scalar kernel counts it from its two band ends
        assert (len(scalar_calls) == 2) == (offset > 0)
        assert (len(batched_calls) > 0) == (offset > 0)
        out = run_cli(capsys, "sweep-v0", "--k", repr(k), "--v0", f"{v0 / 3!r}:{v0!r}:{v0 / 3!r}",
                      "--half-width", repr(half_width))
        argv_grid = sweeps.parameter_grid(v0 / 3, v0, v0 / 3)
        assert out == branches_to_csv(sweep_v0(k, argv_grid, half_width))

    def test_a_sweep_refuses_with_the_texts_of_the_batch(self):
        for ks, v0s, half_width in (REFUSED_SWEEPS[i] for i in (0, 3, 4, 5)):
            with pytest.raises(SolverError) as scalar:
                closed_form.square_well_rows(ks, v0s, half_width)
            with pytest.raises(SolverError) as batched:
                spectrum._square_well_levels(np.array(ks), np.array(v0s), half_width)
            assert str(scalar.value) == str(batched.value)

    @pytest.mark.parametrize("fixed, grid, message", [
        (2.0, [1.0, math.inf], "v0 must be finite"),
        (math.nan, [1.0, 2.0], "k must be finite"),
    ])
    def test_the_well_is_checked_as_the_library_checks_it(self, fixed, grid, message):
        with pytest.raises(ConfigError, match=message):
            sweeps.sweep("v0", fixed, grid, 1.0)
        with pytest.raises(ConfigError, match=message):
            sweep_v0(fixed, grid)
        with pytest.raises(ConfigError, match="half_width"):
            sweeps.sweep("k", 2.0, [1.0], 0.0)


def branch_fields(branches):
    """Every field of every branch, floats by their bits."""
    def bits(value):
        return value.hex() if isinstance(value, float) else value

    return [(b.param_name, b.index, [bits(p) for p in b.params], [bits(e) for e in b.epsilons],
             None if b.termination is None else (bits(b.termination[0]), b.termination[1]))
            for b in branches]


class TestMathOnlyPieces:
    """sweeps' grid, builder and writers give spectrum's values and bytes."""

    @pytest.mark.parametrize("lo, hi, step", [
        (0.0, 8.0, 0.01), (-6.0, 6.0, 0.05), (0.5, 4.0, 0.5), (0.0, 6.0, 0.15), (0.1, 0.3, 0.1),
        (1.0, 1.0, 0.5), (-1e-3, 2.0, 1.0 / 3.0), (0.0, 1.0, 0.3),
    ])
    def test_the_grid_is_parameter_grids(self, lo, hi, step):
        want = parameter_grid(lo, hi, step).tolist()
        assert [p.hex() for p in sweeps.parameter_grid(lo, hi, step)] == [p.hex() for p in want]

    @pytest.mark.parametrize("lo, hi, step", [(0.0, 1.0, 0.0), (0.0, math.inf, 1.0), (0.0, 1e9, 1e-9)])
    def test_the_grid_refuses_as_parameter_grid(self, lo, hi, step):
        with pytest.raises(ConfigError) as pure:
            sweeps.parameter_grid(lo, hi, step)
        with pytest.raises(ConfigError) as numpy_grid:
            parameter_grid(lo, hi, step)
        assert str(pure.value) == str(numpy_grid.value)

    def test_the_band_is_matchings(self):
        rng = np.random.default_rng(53)
        for k, v0 in zip(rng.uniform(-5.0, 5.0, 200).tolist() + [0.0, -0.0, 2.0],
                         rng.uniform(-9.0, 9.0, 200).tolist() + [3.0, 0.0, 4.0]):
            assert closed_form._band(k, v0) == tuple(map(float, matching._band(k, (0.0, -v0, 0.0))))

    def test_the_builders_agree(self):
        built = 0
        for ks, v0s, half_width in drawn_sweeps()[:450:2]:
            swept = "k" if len(set(v0s)) == 1 and len(ks) > 1 else "v0"
            grid, fixed = (ks, v0s[0]) if swept == "k" else (v0s, ks[0])
            try:
                levels = scalar_rows(ks, v0s, half_width)
            except SolverError:
                continue
            end = sweeps.end_rule(swept, fixed, half_width)
            pure = sweeps.build_branches(swept, grid, levels, end)
            arrays = np.array(levels[0], dtype=int), np.array(levels[1], dtype=int), np.array(levels[2])
            batch = spectrum._branches(swept, np.array(grid), arrays, end)
            assert branch_fields(pure) == branch_fields(batch)
            assert sweeps.branches_to_csv(pure) == branches_to_csv(batch)
            built += len(pure)
        assert built > 500

    def test_the_builders_agree_on_zero_signs_and_terminations(self):
        # a branch per level n, over rows that skip, repeat -0.0 and end early
        grid = [-0.0, 0.0, 1.0, -0.0, 2.0]
        levels = [0, 0, 1, 1, 2, 3, 3], [0, -1, 0, -1, 0, 0, 1], [-0.0, 0.5, 0.0, -0.5, -0.0, 0.25, 0.75]
        for swept, fixed in (("k", 3.0), ("v0", 2.0)):
            end = sweeps.end_rule(swept, fixed, 1.0)
            pure = sweeps.build_branches(swept, grid, levels, end)
            batch = spectrum._branches(swept, np.array(grid), tuple(map(np.array, levels)), end)
            assert branch_fields(pure) == branch_fields(batch)
            assert sum(b.termination is not None for b in pure) >= 2

    @settings(max_examples=300, deadline=None)
    @given(branches=branch_lists())
    def test_the_writers_agree(self, branches):
        assert sweeps.branches_to_csv(branches) == branches_to_csv(branches)
        payload = sweeps.branches_to_json_payload(branches)
        assert json.dumps(payload) == json.dumps(branches_to_json_payload(branches))

    def test_the_writers_agree_on_zero_signs(self):
        a = SpectrumBranch("v0", 1, params=[0.0, -0.0], epsilons=[-0.0, 2.0], termination=(-0.0, "band edge"))
        b = SpectrumBranch("v0", 0, params=[-0.0, 0.0], epsilons=[3.0, 0.0])
        assert sweeps.branches_to_csv([a, b]) == branches_to_csv([a, b])
        assert "-0.0,1,termination=band edge" in sweeps.branches_to_csv([a, b])
        assert json.dumps(sweeps.branches_to_json_payload([a, b])) == json.dumps(branches_to_json_payload([a, b]))
        assert sweeps.branches_to_csv([]) == branches_to_csv([]) == "param,branch,epsilon\n"

    @pytest.mark.parametrize("branch, message", [
        (SpectrumBranch("k", 0, [1.0, math.nan], [0.5, 0.25]), "finite"),
        (SpectrumBranch("k", 0, [1.0, 2.0], [math.inf, 0.25]), "finite"),
        (SpectrumBranch("k", 0, [1.0], [0.5], (-math.inf, "band edge")), "finite"),
        (SpectrumBranch("k", 0, [1.0, 2.0], [0.5]), "one energy per parameter"),
    ])
    def test_the_writers_refuse_alike(self, branch, message):
        for writer in (sweeps.branches_to_csv, sweeps.branches_to_json_payload,
                       branches_to_csv, branches_to_json_payload):
            with pytest.raises(ConfigError, match=message):
                writer([SpectrumBranch("k", 1, [0.5], [0.125]), branch])
