"""Command-line behavior: schemas, config merging, exit codes, and
byte-stable output.  Everything drives main(argv) in-process, except the
import check, which needs a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diracwell
from diracwell.cli import main

WELL22_ROOTS = (0.35427361798250695, 1.1335605119300567, 1.9258300731147544)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_level_out_of_range(self, capsys):
        code, _, err = run(capsys, "state", "--k", "2", "--v0", "2", "--level", "7")
        assert code == 2
        assert "3 bound states" in err

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


class TestVerify:
    def test_default_battery_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert all(line.startswith("PASS") for line in lines)

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

    def test_wide_well_passes_every_line(self, capsys):
        # 218 states: its Gram matrix is one batched overlap, not 47524 calls
        code, out, _ = run(capsys, "verify", "--k", "50", "--v0", "120", "--half-width", "3")
        assert code == 0
        assert "routes 218/218/218" in out
        assert all(line.startswith("PASS") for line in out.splitlines())

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


class TestImports:
    def test_import_and_spectrum_leave_scipy_linalg_unloaded(self):
        script = (
            "import contextlib, io, sys\n"
            "import diracwell\n"
            "assert 'scipy.linalg' not in sys.modules, 'import diracwell'\n"
            "from diracwell.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['spectrum', '--k', '2', '--v0', '2']) == 0\n"
            "assert 'scipy.linalg' not in sys.modules, 'diracwell spectrum'\n"
        )
        src = str(Path(diracwell.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
