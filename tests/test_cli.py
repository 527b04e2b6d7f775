"""Command-line behavior: schemas, config merging, exit codes, and
byte-stable output.  Everything drives main(argv) in-process, except the
import checks, the closed-pipe check and the program's exit path, which
need a fresh interpreter."""

import atexit
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diracwell
from diracwell import cli, oracle, spectrum, states
from diracwell.cli import main
from diracwell.core import square_well
from diracwell.errors import ConfigError
from diracwell.matching import square_well_secular
from diracwell.spectrum import MAX_GRID_POINTS, sweep_k, sweep_v0

WELL22_ROOTS = (0.35427361798250695, 1.1335605119300567, 1.9258300731147544)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(diracwell.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


class TestSpectrum:
    def test_csv_schema_and_values(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--k", "2", "--v0", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,epsilon"
        assert len(lines) == 4
        for line, want in zip(lines[1:], WELL22_ROOTS):
            n, eps = line.split(",")
            assert float(eps) == pytest.approx(want, abs=1e-9)

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--k", "3", "--v0", "8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"k", "v0", "half_width", "roots"}
        assert len(payload["roots"]) == 5

    def test_missing_argument_exits_2(self, capsys):
        code, _, err = run(capsys, "spectrum", "--v0", "2")
        assert code == 2
        assert "--k" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "spectrum", "--k", "2", "--v0", "2")
        _, second, _ = run(capsys, "spectrum", "--k", "2", "--v0", "2")
        assert first == second

    def test_barrier_prints_the_mirrored_levels(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--k", "2", "--v0", "-5")
        _, well, _ = run(capsys, "spectrum", "--k", "2", "--v0", "5")
        assert code == 0
        barrier = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert len(barrier) == 4
        assert barrier == [-float(line.split(",")[1]) for line in reversed(well.splitlines()[1:])]

    def test_unresolvable_phase_exits_2(self, capsys):
        # the phase at the upper band end overflows to inf: no count holds
        code, out, err = run(capsys, "spectrum", "--k", "2", "--v0", "1e200")
        assert code == 2
        assert out == ""
        assert "not distinct doubles" in err

    @pytest.mark.parametrize("k, v0", [("1e300", "1e300"), ("2", "1e200")], ids=["nan", "inf"])
    def test_a_band_end_phase_that_is_not_finite_is_named_so(self, capsys, k, v0):
        # not "phase reaches nan": a NaN phase reaches no value
        code, out, err = run(capsys, "spectrum", "--k", k, "--v0", v0)
        assert (code, out) == (2, "")
        assert err == "error: phase is not finite at a band end: levels are not distinct doubles\n"

    @pytest.mark.parametrize("v0", ["1e8", "1e12"])
    def test_level_that_phase_rounding_moves_exits_2(self, capsys, v0):
        # theta near 2 v0 rounds by more than DEFAULT_ROOT_TOL times its slope
        code, out, err = run(capsys, "spectrum", "--k", "2", "--v0", v0)
        assert (code, out) == (2, "")
        assert "phase rounding moves" in err

    @pytest.mark.parametrize("k, v0, count", [("1e10", "1e10", 11026577909), ("1e7", "1e7", 11026578)])
    def test_a_well_of_more_levels_than_a_solve_takes_exits_2(self, capsys, k, v0, count):
        # 1e10 exited 1 with a MemoryError traceback, and 1e7 took 11 s
        code, out, err = run(capsys, "spectrum", "--k", k, "--v0", v0)
        assert (code, out) == (2, "")
        assert err == f"error: {count} levels in one solve, more than the 1000000 it takes\n"

    def test_level_within_a_double_of_the_edge_exits_2(self, capsys):
        # the level of a well this shallow is not an empty spectrum
        code, out, err = run(capsys, "state", "--k", "1", "--v0", "1e-10", "--level", "0")
        assert (code, out) == (2, "")
        assert "within one double of the band edge" in err
        code, out, _ = run(capsys, "spectrum", "--k", "1", "--v0", "0")
        assert (code, out) == (0, "n,epsilon\n")


class TestSweeps:
    def test_sweep_v0_termination_records(self, capsys):
        code, out, _ = run(capsys, "sweep-v0", "--k", "3", "--v0", "0:8:0.1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "param,branch,epsilon"
        terminations = [l for l in lines if "termination=epsilon=-k" in l]
        assert len(terminations) == 2
        depths = sorted(float(l.split(",")[0]) for l in terminations)
        assert depths == pytest.approx([6.386355, 7.343916], abs=1e-5)

    def test_sweep_v0_shallow_well_has_no_collapse(self, capsys):
        code, out, _ = run(capsys, "sweep-v0", "--k", "2", "--v0", "0:2:0.1")
        assert code == 0
        assert "termination=epsilon=-k" not in out

    def test_sweep_k_json_layout(self, capsys):
        code, out, _ = run(
            capsys, "sweep-k", "--v0", "8", "--k", "2.8:3.2:0.1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fixed"] == {"v0": 8.0}
        assert {b["param_name"] for b in payload["branches"]} == {"k"}

    def test_malformed_range_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep-v0", "--k", "3", "--v0", "0:8")
        assert code == 2
        assert "lo:hi:step" in err

    @pytest.mark.parametrize(
        "text, message",
        [("0:x:1", "non-numeric"), ("2:1:0.1", "hi >= lo"), ("0:1:0", "step > 0")],
    )
    def test_bad_range_parts_exit_2(self, capsys, text, message):
        code, out, err = run(capsys, "sweep-v0", "--k", "3", "--v0", text)
        assert (code, out) == (2, "")
        assert message in err

    def test_barrier_to_well_sweep_ends_the_barrier_branches_at_the_band_edge(self, capsys):
        # a range with a negative low end is one token, --v0=lo:hi:step
        code, out, _ = run(capsys, "sweep-v0", "--k", "2", "--v0=-6:6:0.05")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        last = {b: float(p) for p, b, e in rows if not e.startswith("termination=")}
        ends = {b: (float(p), e) for p, b, e in rows if e.startswith("termination=")}
        barrier = [b for b in last if last[b] < 0.0]
        assert len(barrier) == 5
        # a barrier level unbinds at eps = -|k| as the barrier shallows,
        # and its branch ends at its last depth
        assert [ends[b] for b in barrier] == [(last[b], "termination=band edge") for b in barrier]
        # the well levels collapse at |k| + sqrt(k^2 + ((n + 1) pi / 2L)^2)
        collapses = sorted(v for b, v in ends.items() if b not in barrier)
        assert [e for _, e in collapses] == ["termination=epsilon=-k"] * 2
        assert [p for p, _ in collapses] == pytest.approx(
            [2.0 + math.hypot(2.0, (n + 1) * math.pi / 2.0) for n in (0, 1)], abs=1e-12
        )

    def test_sweep_v0_json_terminations_match_the_csv(self, capsys):
        _, text, _ = run(capsys, "sweep-v0", "--k", "3", "--v0", "0:8:0.1")
        code, out, _ = run(capsys, "sweep-v0", "--k", "3", "--v0", "0:8:0.1", "--format", "json")
        assert code == 0
        ends = [b["termination"] for b in json.loads(out)["branches"] if b["termination"]]
        assert [e["boundary"] for e in ends] == ["epsilon=-k", "epsilon=-k"]
        csv_params = [float(l.split(",")[0]) for l in text.splitlines() if "termination=" in l]
        assert sorted(e["param"] for e in ends) == sorted(csv_params)

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--k", "3", "--v0", "8", "--scan-points", "0"],
            ["spectrum", "--k", "3", "--v0", "8", "--scan-points", "-5"],
            ["sweep-k", "--v0", "8", "--k", "1:2:0.5", "--scan-points", "1"],
            ["sweep-v0", "--k", "3", "--v0", "1:2:0.5", "--scan-points", "0"],
        ],
    )
    def test_too_few_scan_points_exit_2(self, capsys, argv):
        # levels are indexed by phase, so no subcommand takes --scan-points
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --scan-points" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--k", "nan", "--v0", "2"],
            ["spectrum", "--k", "2", "--v0", "nan"],
            ["spectrum", "--k", "2", "--v0", "2", "--half-width", "-1"],
            ["sweep-v0", "--k", "3", "--v0", "0:inf:1"],
            ["sweep-k", "--v0", "3", "--k", "0:1:nan"],
            ["sweep-v0", "--k", "nan", "--v0", "0:1:0.5"],
            ["state", "--k", "2", "--v0", "2", "--epsilon", "nan"],
        ],
    )
    def test_non_finite_or_flat_well_exits_2(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-v0", "--k", "3", "--v0", "0:1e9:1e-9"],
            ["sweep-k", "--v0", "8", "--k", "0:1e-300:1e-310"],
        ],
    )
    def test_grid_of_too_many_points_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "points" in err

    def test_sweep_output_is_byte_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, "sweep-v0", "--k", "3", "--v0", "0:4:0.5")
        _, second, _ = run(capsys, "sweep-v0", "--k", "3", "--v0", "0:4:0.5")
        assert first == second


class TestState:
    def test_level_selection_csv(self, capsys):
        code, out, _ = run(capsys, "state", "--k", "2", "--v0", "2", "--level", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,re_psi1,im_psi1,re_psi2,im_psi2,rho,jy"
        data = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
        x, rho = data[:, 0], data[:, 5]
        assert float(np.trapezoid(rho, x)) == pytest.approx(1.0, abs=1e-5)
        assert np.all(rho >= 0.0)

    def test_epsilon_selection_json(self, capsys):
        code, out, _ = run(
            capsys, "state", "--k", "2", "--v0", "2",
            "--epsilon", repr(WELL22_ROOTS[1]), "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["epsilon"] == pytest.approx(WELL22_ROOTS[1], abs=1e-12)
        assert payload["pt_eigenvalue"] == pytest.approx([0.0, -1.0], abs=1e-8)

    def test_level_and_epsilon_conflict(self, capsys):
        code, _, err = run(
            capsys, "state", "--k", "2", "--v0", "2", "--level", "0", "--epsilon", "0.5"
        )
        assert code == 2
        assert "exactly one" in err

    def test_too_many_points_exit_2(self, capsys):
        code, _, err = run(capsys, "state", "--k", "2", "--v0", "2", "--level", "0", "--points", "1000000")
        assert code == 2
        assert "at most 1000000 points" in err

    @pytest.mark.parametrize("fmt, unused", [("json", "state_to_csv"), ("csv", "state_to_json")])
    def test_only_the_chosen_format_is_built(self, capsys, monkeypatch, fmt, unused):
        # JSON lays its columns out from the CSV's tokens, but not through state_to_csv
        def refuse(state):
            raise AssertionError(f"{unused} called for --format {fmt}")

        monkeypatch.setattr(states, unused, refuse)
        argv = ["state", "--k", "3", "--v0", "8", "--level", "4", "--points", "201", "--format", fmt]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (PINNED / f"state_3_8_4_201.{fmt}").read_text()

    def test_level_out_of_range(self, capsys):
        code, _, err = run(capsys, "state", "--k", "2", "--v0", "2", "--level", "7")
        assert code == 2
        assert "3 bound states" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_decay_length_near_1e155_is_assembled(self, capsys):
        # the squares of the component norms would overflow a double
        code, out, err = run(capsys, "state", "--k", "1e-155", "--v0", "2", "--level", "0", "--points", "201")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 202

    def test_deep_well_level_exits_0(self, capsys):
        code, out, _ = run(
            capsys, "state", "--k", "12", "--v0", "35", "--half-width", "2", "--level", "2"
        )
        assert code == 0
        assert len(out.splitlines()) == 4002

    def test_non_eigenvalue_exits_2(self, capsys):
        code, _, err = run(capsys, "state", "--k", "2", "--v0", "2", "--epsilon", "1.0")
        assert code == 2
        assert "nullspace" in err

    def test_too_few_points_exit_2(self, capsys):
        code, out, err = run(
            capsys, "state", "--k", "2", "--v0", "2", "--level", "0", "--points", "-5"
        )
        assert code == 2
        assert out == ""
        assert "at least 3 points" in err


class TestLandau:
    def test_magnetic_csv(self, capsys):
        code, out, _ = run(capsys, "landau", "--beta", "1", "--levels", "2")
        assert code == 0
        assert out.splitlines() == [
            "n,epsilon_plus,epsilon_minus",
            "0,0.0,0.0",
            "1,1.4142135623730951,-1.4142135623730951",
            "2,2.0,-2.0",
        ]

    def test_proportional_json(self, capsys):
        code, out, _ = run(
            capsys, "landau", "--beta", "1", "--alpha", "0.5", "--k", "2",
            "--levels", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["levels"][0]["plus"] == pytest.approx(-1.0)
        assert payload["levels"][1]["plus"] == pytest.approx(0.139754, abs=1e-6)

    def test_unsupported_regime_exits_2(self, capsys):
        code, _, err = run(capsys, "landau", "--beta", "1", "--alpha", "1.5")
        assert code == 2
        assert "alpha" in err

    @pytest.mark.parametrize("extra", [[], ["--alpha", "0.5", "--k", "1"]])
    def test_level_that_overflows_exits_2(self, capsys, extra):
        # 2 n beta overflows to inf at n = 1: no level is printed as inf
        code, out, err = run(capsys, "landau", "--beta", "1e308", "--levels", "2", *extra)
        assert (code, out) == (2, "")
        assert "overflows" in err

    def test_more_levels_than_the_cap_exit_2_before_any_row(self, capsys, monkeypatch):
        # refused before the loop, which keeps every row in memory
        monkeypatch.setattr(cli, "landau_levels_magnetic", None)
        code, out, err = run(capsys, "landau", "--beta", "1", "--levels", str(MAX_GRID_POINTS))
        assert (code, out) == (2, "")
        assert f"error: levels must be below {MAX_GRID_POINTS}" in err
        # the cap counts rows, level 0 included
        monkeypatch.undo()
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 3)
        assert run(capsys, "landau", "--beta", "1", "--levels", "2")[0] == 0
        assert run(capsys, "landau", "--beta", "1", "--levels", "3")[0] == 2

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["--beta", "0"], "beta"),
            (["--beta", "nan"], "beta"),
            (["--beta", "1", "--levels", "-1"], "levels"),
            (["--beta", "1", "--alpha", "nan"], "alpha"),
            (["--beta", "1", "--alpha", "0.5", "--k", "inf"], "k"),
            (["--beta", "1", "--k", "nan"], "k"),
        ],
    )
    def test_bad_inputs_exit_2(self, capsys, argv, name):
        code, out, err = run(capsys, "landau", *argv)
        assert code == 2
        assert out == ""
        assert f"error: {name} must" in err


class TestHalfWidth:
    @pytest.mark.parametrize("width", ["nan", "inf", "0", "-1"])
    def test_every_route_refuses_a_width_with_one_message(self, capsys, width):
        # the closed form checks the width itself, without core; its rule and
        # text must stay those of core.square_well, which the other routes use
        message = f"half_width must be finite and positive, got {float(width)}"
        for argv in (["spectrum", "--k", "2", "--v0", "2"], ["sweep-k", "--v0", "3", "--k", "0.5:2:0.5"],
                     ["sweep-v0", "--k", "3", "--v0", "0:4:1"], ["state", "--k", "2", "--v0", "2", "--level", "0"],
                     ["verify"]):
            assert run(capsys, *argv, f"--half-width={width}") == (2, "", f"error: {message}\n"), argv
        for call in (square_well_secular, lambda k, v0, w: sweep_k(v0, [k], w),
                     lambda k, v0, w: sweep_v0(k, [v0], w), lambda k, v0, w: square_well(v0, w)):
            with pytest.raises(ConfigError) as info:
                call(2.0, 2.0, float(width))
            assert str(info.value) == message


class TestVerify:
    def test_default_battery_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert all(line.startswith("PASS") for line in lines)

    def test_momentum_whose_square_underflows_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--k", "1e-300", "--v0", "2")  # was a RuntimeWarning
        assert code == 2 and "underflows when squared" in err

    def test_custom_well(self, capsys):
        code, out, _ = run(capsys, "verify", "--k", "3", "--v0", "8")
        assert code == 0
        assert "5 states" in out

    def test_deep_well_shoots_at_its_own_step(self, capsys):
        # at a fixed step of 2e-3 level 33 of this well misses the closed
        # form by 2e-5; the step follows the deepest interior wavenumber.
        # The lowest level, 0.0074 above the band edge, sits inside the
        # first scan cell: only edge-refined scans bracket it.
        code, out, _ = run(capsys, "verify", "--k", "12", "--v0", "35", "--half-width", "2")
        assert code == 0
        assert "routes 34/34/34" in out
        assert all(line.startswith("PASS") for line in out.splitlines())

    @pytest.mark.parametrize("k, v0, half_width, count", [(2.0, 1e4, 1.0, 4), (20.0, 1e4, 2.0, 52),
                                                          (2.0, 1e6, 1.0, 4)])
    def test_routes_agree_on_a_deep_well(self, k, v0, half_width, count):
        # at q h = 0.02 the RK4 phase error, summed over the 2L / h steps, put
        # the first two wells' shot levels 1.1e-5 and 1.3e-5 from the closed form
        name, ok, detail = next(cli._checks(k, v0, half_width))
        assert ok, detail
        assert detail == f"{count} states, routes {count}/{count}/{count}"

    def test_wide_well_passes_every_line(self, capsys):
        # 218 states: its Gram matrix is one batched overlap, not 47524 calls
        code, out, _ = run(capsys, "verify", "--k", "50", "--v0", "120", "--half-width", "3")
        assert code == 0
        assert "routes 218/218/218" in out
        assert all(line.startswith("PASS") for line in out.splitlines())

    def test_a_dropped_root_fails_verification(self, capsys, monkeypatch):
        shoot = oracle.shooting_bound_states
        monkeypatch.setattr(oracle, "shooting_bound_states", lambda *a, **kw: shoot(*a, **kw)[:-1])
        code, out, err = run(capsys, "verify")
        assert code == 1
        assert out.splitlines()[0] == (
            "FAIL  three independent routes agree on the spectrum (3 states, routes 3/3/2)"
        )
        assert "verification failed: 1 check(s) failed" in err

    @pytest.mark.parametrize("well", [(2.0, 2.0, 1.0), (2.0, -5.0, 1.0), (50.0, 120.0, 3.0)])
    def test_closed_roots_moved_by_1e_7_fail_the_route_line(self, monkeypatch, well):
        # the transfer route lies within 2.8e-12 of the closed form and the
        # shot within 2.6e-9 over the deck's wells: a closed route off by
        # 1e-7, in either closed-form kernel, must not pass
        find = spectrum.find_roots

        def moved(secular):
            roots = find(secular)
            return [r + 1e-7 for r in roots] if hasattr(secular.phase, "square_well") else roots

        monkeypatch.setattr(spectrum, "find_roots", moved)
        name, ok, detail = next(cli._checks(*well))
        assert name == "three independent routes agree on the spectrum"
        assert not ok, detail

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_decay_length_near_1e160_is_refused_with_one_error_line(self, capsys):
        # the norms' squares no longer overflow, but psi2 = (psi1' + i delta psi1) / k
        # keeps too few digits at this k, and assembly refuses the state
        code, _, err = run(capsys, "verify", "--k", "1e-160", "--v0", "2")
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_shoots_with_the_default_scan(self, capsys):
        # the top level sits 0.031 below the band edge, beyond the last point
        # of a 500-point scan (0.080 below it) but not of the default scan
        code, out, _ = run(capsys, "verify", "--k", "20", "--v0", "20", "--half-width", "1")
        assert code == 0
        assert "routes 23/23/23" in out
        assert all(line.startswith("PASS") for line in out.splitlines())


class TestConfigFile:
    def test_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "well.json"
        cfg.write_text('{"k": 2, "v0": 2}')
        code, out, _ = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_flag_beats_file(self, capsys, tmp_path):
        cfg = tmp_path / "well.json"
        cfg.write_text('{"k": 2, "v0": 2}')
        _, from_flag, _ = run(capsys, "spectrum", "--config", str(cfg), "--v0", "8")
        _, direct, _ = run(capsys, "spectrum", "--k", "2", "--v0", "8")
        assert from_flag == direct

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{nope")
        code, _, err = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 2
        assert "config" in err

    def test_non_object_file_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        code, _, _ = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 2

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "retired.json"
        cfg.write_text('{"k": 2, "v0": 2, "scan_points": 500}')
        code, out, err = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "unknown keys: scan_points" in err

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("spectrum", '{"k": "abc", "v0": 2}', "k"),
            ("spectrum", '{"k": [1], "v0": 2}', "k"),
            ("spectrum", '{"k": true, "v0": 2}', "k"),
            ("spectrum", '{"k": 2, "v0": 2, "out": 1}', "out"),
            ("state", '{"k": 2, "v0": 2, "level": 1.7}', "level"),
            ("sweep-k", '{"v0": 8, "k": 1.5}', "k"),
            ("landau", '{"beta": 1, "levels": null}', "levels"),
        ],
    )
    def test_value_of_the_wrong_type_exits_2(self, capsys, tmp_path, command, text, key):
        cfg = tmp_path / "typed.json"
        cfg.write_text(text)
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"config key '{key}' must be" in err

    def test_values_of_the_flag_types_are_accepted(self, capsys, tmp_path):
        # an integer passes for a float; a swept parameter is a range string
        cfg = tmp_path / "typed.json"
        cfg.write_text('{"v0": 8, "k": "1:2:0.5", "half_width": 1}')
        code, from_file, _ = run(capsys, "sweep-k", "--config", str(cfg))
        _, direct, _ = run(capsys, "sweep-k", "--v0", "8", "--k", "1:2:0.5")
        assert code == 0
        assert from_file == direct

    def test_values_take_the_flag_type_and_other_commands_keys_are_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "typed.json"
        cfg.write_text('{"k": 2, "v0": 2, "format": "json", "beta": 1}')
        code, out, _ = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 0
        assert '"k": 2.0' in out

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_integer_past_the_largest_double_exits_2(self, capsys, tmp_path, digits):
        cfg = tmp_path / "huge.json"
        cfg.write_text('{"k": 1%s, "v0": 2}' % ("0" * digits))
        code, out, err = run(capsys, "spectrum", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "config" in err

    def test_bad_format_value_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "fmt.json"
        cfg.write_text('{"k": 2, "v0": 2, "format": "yaml"}')
        code, _, err = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 2
        assert "format" in err


class TestOutputFile:
    def test_out_writes_file_instead_of_stdout(self, capsys, tmp_path):
        target = tmp_path / "spectrum.csv"
        code, out, _ = run(
            capsys, "spectrum", "--k", "2", "--v0", "2", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n,epsilon\n")

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, where):
        # exit 1 is kept for a failed verification, not a traceback
        target = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
        code, out, err = run(capsys, "spectrum", "--k", "2", "--v0", "2", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert not (tmp_path / "missing").exists()

    def test_reader_that_closes_the_pipe_early_gets_exit_0(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "diracwell.cli", "sweep-v0", "--k", "3", "--v0", "0:8:0.01"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=src_env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()  # the output is larger than the pipe holds
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert first == b"param,branch,epsilon\n"
        assert err == b""


PINNED = Path(__file__).parent / "data" / "cli_stdout"


class TestExitPath:
    """main() run as the program turns the cyclic collector off and
    registers gc.freeze with atexit, once; a caller's main(argv) does
    neither."""

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("name, argv", [
        # the deepest well's 1425 levels, the largest pin, and three levels
        # that stay in stdout's buffer until the interpreter flushes it at exit
        ("spectrum_200_500_5.csv", ["spectrum", "--k", "200", "--v0", "500", "--half-width", "5"]),
        ("spectrum_2_2.csv", ["spectrum", "--k", "2", "--v0", "2"]),
    ], ids=["largest", "buffered"])
    def test_the_program_writes_every_byte(self, tmp_path, name, argv, to_file):
        # stdout block-buffered, as it is unless PYTHONUNBUFFERED is set
        env = {key: value for key, value in src_env().items() if key != "PYTHONUNBUFFERED"}
        target = tmp_path / name
        argv = argv + (["--out", str(target)] if to_file else [])
        proc = subprocess.run([sys.executable, "-m", "diracwell.cli", *argv], capture_output=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert (target.read_bytes() if to_file else proc.stdout) == (PINNED / name).read_bytes()
        assert to_file == (proc.stdout == b"")

    def test_a_caller_registers_no_exit_hook(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(atexit, "register", lambda *args, **kwargs: calls.append(args))
        assert run(capsys, "spectrum", "--k", "2", "--v0", "2")[0] == 0
        assert run(capsys, "spectrum", "--v0", "2")[0] == 2
        assert calls == []

    def test_a_caller_keeps_the_collector_on(self, capsys):
        assert run(capsys, "spectrum", "--k", "2", "--v0", "2")[0] == 0
        assert gc.isenabled()

    def test_the_program_leaves_one_hook_however_often_main_runs(self, capsys, monkeypatch):
        # a registry with atexit's semantics: unregister drops every equal entry
        hooks = []

        def unregister(func):
            hooks[:] = [h for h in hooks if h != func]

        monkeypatch.setattr(atexit, "register", hooks.append)
        monkeypatch.setattr(atexit, "unregister", unregister)
        monkeypatch.setattr(sys, "argv", ["diracwell", "spectrum", "--k", "2", "--v0", "2"])
        try:
            assert main() == 0
            assert main() == 0
            assert not gc.isenabled()
        finally:  # the program's main turns the collector off, here in the test session
            gc.enable()
        assert hooks == [gc.freeze]
        assert capsys.readouterr().out.count("n,epsilon\n") == 2

    def test_the_program_runs_no_cyclic_collection(self):
        # numpy's import alone, inside main(), ran about 30 of them
        run_fresh(
            "import contextlib, gc, io, sys\n"
            "sys.argv = ['diracwell', 'spectrum', '--k', '2', '--v0', '2']\n"
            "from diracwell.cli import main\n"
            "starts = []\n"
            "gc.callbacks.append(lambda phase, info: starts.append(info) if phase == 'start' else None)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main() == 0\n"
            "assert starts == [], starts\n"
            "assert not gc.isenabled()\n"
        )

    def test_importing_registers_no_exit_hook(self):
        run_fresh(
            "import atexit\n"
            "calls = []\n"
            "atexit.register = lambda *args, **kwargs: calls.append(args)\n"
            "import diracwell, diracwell.cli\n"
            "diracwell.__all__\n"
            "assert calls == [], calls\n"
        )


class TestPinnedOutput:
    """stdout of the spectrum of every CI verify well, of the paper's
    k = 3 collapse sweep, a barrier-to-well sweep and a 41-row depth sweep,
    of one state of the k = 3, v0 = 8 well, of a momentum sweep and of a
    proportional-field Landau ladder, as CSV and as JSON, and of five
    verify batteries (the empty-spectrum well among them), byte for byte
    as recorded in tests/data: the root kernels' fast paths may not move a
    single bit of a root, nor the serializers a single character of a
    sample."""

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("spectrum_2_2.csv", ["spectrum", "--k", "2", "--v0", "2"]),
            ("spectrum_3_8.csv", ["spectrum", "--k", "3", "--v0", "8"]),
            ("spectrum_30_40_1.5.csv", ["spectrum", "--k", "30", "--v0", "40", "--half-width", "1.5"]),
            ("spectrum_2_-5.csv", ["spectrum", "--k", "2", "--v0", "-5"]),
            ("spectrum_2_0.csv", ["spectrum", "--k", "2", "--v0", "0"]),
            ("spectrum_50_20_3.csv", ["spectrum", "--k", "50", "--v0", "20", "--half-width", "3"]),
            ("spectrum_2_1e-4.csv", ["spectrum", "--k", "2", "--v0", "1e-4"]),
            ("spectrum_50_120_3.csv", ["spectrum", "--k", "50", "--v0", "120", "--half-width", "3"]),
            ("spectrum_200_500_5.csv", ["spectrum", "--k", "200", "--v0", "500", "--half-width", "5"]),
            ("sweep_v0_3_0-8-0.01.csv", ["sweep-v0", "--k", "3", "--v0", "0:8:0.01"]),
            ("sweep_v0_2_-6-6-0.05.csv", ["sweep-v0", "--k", "2", "--v0=-6:6:0.05"]),
            ("state_3_8_4_201.csv", ["state", "--k", "3", "--v0", "8", "--level", "4", "--points", "201"]),
            ("state_3_8_4_201.json",
             ["state", "--k", "3", "--v0", "8", "--level", "4", "--points", "201", "--format", "json"]),
            ("spectrum_2_2.json", ["spectrum", "--k", "2", "--v0", "2", "--format", "json"]),
            ("sweep_k_3_0.5-4-0.5.json", ["sweep-k", "--v0", "3", "--k", "0.5:4:0.5", "--format", "json"]),
            ("sweep_v0_2.5_0-6-0.15.csv", ["sweep-v0", "--k", "2.5", "--v0", "0:6:0.15"]),
            ("landau_0.5_1_2.csv", ["landau", "--alpha", "0.5", "--beta", "1", "--k", "2"]),
            ("landau_0.5_1_2.json", ["landau", "--alpha", "0.5", "--beta", "1", "--k", "2", "--format", "json"]),
            ("verify_2_2.txt", ["verify", "--k", "2", "--v0", "2"]),
            ("verify_3_8.txt", ["verify", "--k", "3", "--v0", "8"]),
            ("verify_2_-5.txt", ["verify", "--k", "2", "--v0", "-5"]),
            ("verify_2_0.txt", ["verify", "--k", "2", "--v0", "0"]),
            ("verify_30_40_1.5.txt", ["verify", "--k", "30", "--v0", "40", "--half-width", "1.5"]),
        ],
    )
    def test_stdout_is_byte_identical_to_the_recorded_output(self, capsys, name, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (PINNED / name).read_text()


# pins whose bytes numpy's float64 kernels keep with its wider dispatch
# levels disabled: without AVX-512, and without AVX2 (X86_V3) too.  Every
# spectrum pin of at most SCALAR_LEVELS levels is here, and every sweep pin
# of at most SCALAR_SWEEP_ROWS rows: the scalar kernel loads no numpy
NO_X86_V4 = "AVX512_SPR AVX512_ICL X86_V4"
DISPATCH_PINS = [
    (NO_X86_V4, "state_3_8_4_201.csv", ["state", "--k", "3", "--v0", "8", "--level", "4", "--points", "201"]),
    (NO_X86_V4, "verify_2_-5.txt", ["verify", "--k", "2", "--v0", "-5"]),
    *((level, name, argv) for level in (NO_X86_V4, NO_X86_V4 + " X86_V3") for name, argv in [
        ("spectrum_2_2.csv", ["spectrum", "--k", "2", "--v0", "2"]),
        ("spectrum_3_8.csv", ["spectrum", "--k", "3", "--v0", "8"]),
        ("spectrum_2_-5.csv", ["spectrum", "--k", "2", "--v0", "-5"]),
        ("spectrum_2_0.csv", ["spectrum", "--k", "2", "--v0", "0"]),
        ("spectrum_2_1e-4.csv", ["spectrum", "--k", "2", "--v0", "1e-4"]),
        ("spectrum_2_2.json", ["spectrum", "--k", "2", "--v0", "2", "--format", "json"]),
        ("sweep_k_3_0.5-4-0.5.json", ["sweep-k", "--v0", "3", "--k", "0.5:4:0.5", "--format", "json"]),
        ("sweep_v0_2.5_0-6-0.15.csv", ["sweep-v0", "--k", "2.5", "--v0", "0:6:0.15"]),
        ("landau_0.5_1_2.csv", ["landau", "--alpha", "0.5", "--beta", "1", "--k", "2"]),
        ("verify_2_0.txt", ["verify", "--k", "2", "--v0", "0"]),
    ]),
]


class TestPinnedOutputUnderDispatch:
    """Pins of TestPinnedOutput, byte for byte from a fresh program whose
    numpy runs with NPY_DISABLE_CPU_FEATURES set, so that a new dependence
    of stdout on the CPU's kernels shows on any host.  numpy may warn on
    stderr about a feature the host lacks, so only the exit code and
    stdout are compared."""

    @pytest.mark.parametrize("level, name, argv", DISPATCH_PINS)
    def test_stdout_is_byte_identical_to_the_recorded_output(self, level, name, argv):
        result = subprocess.run([sys.executable, "-m", "diracwell.cli", *argv], capture_output=True,
                                env={**src_env(), "NPY_DISABLE_CPU_FEATURES": level})
        assert result.returncode == 0
        assert result.stdout == (PINNED / name).read_bytes()


def run_fresh(script: str) -> None:
    """script run in a fresh interpreter, which must exit 0."""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=src_env())
    assert result.returncode == 0, result.stderr


class TestImports:
    def test_import_and_spectrum_leave_scipy_linalg_unloaded(self):
        # and fractions (with decimal), which only the transfer route's
        # binding rule needs; diracwell.__all__ loads every library module
        run_fresh(
            "import contextlib, io, sys\n"
            "import diracwell\n"
            "diracwell.__all__\n"
            "assert 'scipy.linalg' not in sys.modules, 'import diracwell'\n"
            "assert 'fractions' not in sys.modules, 'import diracwell'\n"
            "from diracwell.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['spectrum', '--k', '2', '--v0', '2']) == 0\n"
            "assert 'scipy.linalg' not in sys.modules, 'diracwell spectrum'\n"
        )

    def test_verify_loads_no_fractions_and_no_decimal(self):
        # the weak-coupling rule takes its exact sign with integers
        run_fresh(
            "import contextlib, io, sys\n"
            "from diracwell.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['verify', '--k', '3', '--v0', '8']) == 0\n"
            "loaded = [m for m in ('fractions', 'decimal') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )

    def test_the_grid_oracle_loads_no_scipy(self):
        run_fresh(
            "import sys\n"
            "from diracwell import proportional_oscillator_levels\n"
            "proportional_oscillator_levels(0.5, 1, 6)\n"
            "loaded = [m for m in sys.modules if m.split('.')[0].startswith('scipy')]\n"
            "assert not loaded, loaded\n"
        )

    def test_import_diracwell_loads_no_module_and_no_numpy(self):
        run_fresh(
            "import sys\n"
            "import diracwell\n"
            "loaded = [m for m in sys.modules if m.startswith(('diracwell.', 'numpy'))]\n"
            "assert not loaded, loaded\n"
        )

    def test_importing_a_math_only_module_loads_no_numpy(self):
        # a submodule name passes through the package's lazy exports
        run_fresh(
            "import sys\n"
            "from diracwell import closed_form, sweeps\n"
            "assert closed_form.__name__ == 'diracwell.closed_form' and sweeps.__name__ == 'diracwell.sweeps'\n"
            "loaded = sorted(m for m in sys.modules if m.startswith(('diracwell.', 'numpy')))\n"
            "assert loaded == ['diracwell.closed_form', 'diracwell.errors', 'diracwell.landau',\n"
            "                  'diracwell.sweeps'], loaded\n"
        )

    def test_import_cli_loads_no_numpy_and_no_solver_module(self):
        # the landau handler's ladders and cap come from the math-only landau module
        run_fresh(
            "import sys\n"
            "import diracwell.cli\n"
            "loaded = sorted(m for m in sys.modules if m.startswith(('diracwell.', 'numpy')))\n"
            "assert loaded == ['diracwell.cli', 'diracwell.errors', 'diracwell.landau'], loaded\n"
        )

    @pytest.mark.parametrize(
        "argv, loaded, unloaded",
        [
            (["spectrum", "--k", "2", "--v0", "2"], ["closed_form"],
             ["numpy", "matching", "spectrum", "core", "states", "oracle", "_floatfmt", "json"]),
            (["sweep-k", "--v0", "3", "--k", "0.5:2:0.5"], ["closed_form", "sweeps"],
             ["numpy", "matching", "spectrum", "core", "states", "oracle", "_floatfmt", "json"]),
            (["sweep-v0", "--k", "2", "--v0", "0:4:1"], ["closed_form", "sweeps"],
             ["numpy", "matching", "spectrum", "core", "states", "oracle", "_floatfmt", "json"]),
            (["landau", "--beta", "1"], ["landau"],
             ["numpy", "core", "matching", "spectrum", "states", "oracle", "_floatfmt", "json"]),
            (["state", "--k", "2", "--v0", "2", "--level", "0", "--points", "201"],
             ["core", "states", "_floatfmt"], ["oracle", "json"]),
            (["state", "--k", "2", "--v0", "2", "--level", "0", "--points", "201", "--format", "json"],
             ["core", "states", "_floatfmt", "json"], ["oracle"]),
            (["verify"], ["core", "states", "oracle"], ["_floatfmt", "json"]),
        ],
        ids=["spectrum", "sweep-k", "sweep-v0", "landau", "state", "state-json", "verify"],
    )
    def test_a_command_loads_only_the_modules_it_runs(self, argv, loaded, unloaded):
        # the closed form loads no core, which only states and the transfer
        # route need; only a state, as CSV or as JSON (which reuses the CSV's
        # tokens), formats its samples with the vectorized kernel; only JSON
        # output loads the standard library's json, which names "json" here;
        # "numpy" names numpy
        run_fresh(
            "import contextlib, io, sys\n"
            "from diracwell.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            "name = lambda m: m if m in ('json', 'numpy') else 'diracwell.' + m\n"
            f"missing = [m for m in {loaded!r} if name(m) not in sys.modules]\n"
            "assert not missing, missing\n"
            f"loaded = [m for m in {unloaded!r} if name(m) in sys.modules]\n"
            "assert not loaded, loaded\n"
        )

    def test_spectrum_loads_numpy_only_for_a_well_the_batch_solves(self):
        # a well of at most SCALAR_LEVELS levels takes the scalar kernel and
        # loads no numpy; the 1425 levels of (200, 500, 5) take the batch
        run_fresh(
            "import contextlib, io, sys\n"
            "from diracwell.cli import main\n"
            "def spectrum(*argv):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        assert main(['spectrum', *argv]) == 0\n"
            "    return out.getvalue()\n"
            f"pinned = {str(PINNED)!r}\n"
            "assert spectrum('--k', '2', '--v0', '-5') == open(pinned + '/spectrum_2_-5.csv').read()\n"
            "assert 'numpy' not in sys.modules\n"
            "deep = spectrum('--k', '200', '--v0', '500', '--half-width', '5')\n"
            "assert deep == open(pinned + '/spectrum_200_500_5.csv').read()\n"
            "assert 'numpy' in sys.modules\n"
        )

    def test_a_sweep_loads_numpy_only_when_the_batch_solves_it(self):
        # sweeps of at most SCALAR_SWEEP_ROWS rows of at most SCALAR_LEVELS
        # levels take the scalar kernel and load neither numpy nor the
        # dataclasses and inspect modules.  The pinned 801- and 241-row
        # sweeps take the batch and print the library's bytes, which
        # TestPinnedOutput pins: they are numpy's, so they are compared
        # here with the library, as the pins hold at default dispatch only
        run_fresh(
            "import contextlib, io, sys\n"
            "from diracwell.cli import main\n"
            "def sweep(*argv):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        assert main(list(argv)) == 0\n"
            "    return out.getvalue()\n"
            f"pinned = {str(PINNED)!r}\n"
            "text = sweep('sweep-v0', '--k', '2.5', '--v0', '0:6:0.15')\n"
            "assert text == open(pinned + '/sweep_v0_2.5_0-6-0.15.csv').read()\n"
            "text = sweep('sweep-k', '--v0', '3', '--k', '0.5:4:0.5', '--format', 'json')\n"
            "assert text == open(pinned + '/sweep_k_3_0.5-4-0.5.json').read()\n"
            "loaded = [m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
            "text = sweep('sweep-v0', '--k', '3', '--v0', '0:8:0.01')\n"
            "assert 'numpy' in sys.modules\n"
            "from diracwell import branches_to_csv, parameter_grid, sweep_v0\n"
            "assert text == branches_to_csv(sweep_v0(3.0, parameter_grid(0.0, 8.0, 0.01)))\n"
            "text = sweep('sweep-v0', '--k', '2', '--v0=-6:6:0.05')\n"
            "assert text == branches_to_csv(sweep_v0(2.0, parameter_grid(-6.0, 6.0, 0.05)))\n"
        )

    def test_star_import_and_dir_give_the_union_of_the_library_exports(self):
        run_fresh(
            "import importlib, pkgutil\n"
            "import diracwell\n"
            "names = set()\n"
            "for m in pkgutil.iter_modules(diracwell.__path__):\n"
            "    if m.name != 'cli':\n"
            "        names |= set(importlib.import_module('diracwell.' + m.name).__all__)\n"
            "star = {}\n"
            "exec('from diracwell import *', star)\n"
            "assert set(star) - {'__builtins__'} == names, set(star) ^ names\n"
            "assert dir(diracwell) == sorted(names), set(dir(diracwell)) ^ names\n"
        )
