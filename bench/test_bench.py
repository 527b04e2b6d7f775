"""Tests of the benchmark's own reference, checks and tracing.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import diracwell as dw  # noqa: E402
import layers  # noqa: E402
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.mark.parametrize("well, count", [
    ((2.0, 2.0, 1.0), 3),
    ((3.0, 8.0, 1.0), 5),
    ((50.0, 120.0, 3.0), 218),
    ((200.0, 500.0, 5.0), 1425),
    ((2.0, 1e-4, 1.0), 1),
])
def test_reference_count(well, count):
    assert ref.reference_count(*well) == count


def test_reference_roots_match_known_energies():
    roots = ref.reference_roots(2.0, 2.0, 1.0)
    assert np.allclose(roots, (0.35427361798250695, 1.1335605119300567, 1.9258300731147544),
                       atol=1e-9, rtol=0)


def test_reference_spectra_vectorized_matches_single_wells():
    wells = [(2.0, 2.0, 1.0), (3.0, 8.0, 1.0), (1.5, 0.0, 1.0)]
    many = ref.reference_spectra(*zip(*wells))
    for well, roots in zip(wells, many):
        assert np.array_equal(roots, ref.reference_roots(*well))
    assert len(many[2]) == 0  # v0 = 0: empty band


def test_collapse_depths_of_the_paper_sweep():
    depths = ref.collapse_depths(3.0, 0.0, 8.0, 1.0)
    assert len(depths) == 2
    assert abs(depths[0] - 6.386355135) < 1e-6
    assert abs(depths[1] - 7.343915791) < 1e-6


def test_check_spectrum_accepts_the_solver_result():
    expected = ref.reference_roots(3.0, 8.0, 1.0)
    found = dw.find_roots(dw.square_well_secular(3.0, 8.0, 1.0))
    assert ref.check_spectrum(found, expected, *ref.band(3.0, 8.0)).ok


def test_check_spectrum_flags_perturbed_results():
    expected = ref.reference_roots(3.0, 8.0, 1.0)
    found = list(dw.find_roots(dw.square_well_secular(3.0, 8.0, 1.0)))
    lo, hi = ref.band(3.0, 8.0)
    moved = found.copy()
    moved[2] += 1e-4
    dropped = found[:2] + found[3:]
    extra = sorted(found + [0.5 * (found[1] + found[2])])
    for bad in (moved, dropped, extra):
        c = ref.check_spectrum(bad, expected, lo, hi)
        assert not c.ok and not c.known, c.detail


def test_check_spectrum_marks_the_documented_undercounts_as_known():
    lo, hi = ref.band(2.0, 1e-4)
    c = ref.check_spectrum([], ref.reference_roots(2.0, 1e-4, 1.0), lo, hi)
    assert not c.ok and c.known
    found = dw.find_roots(dw.square_well_secular(200.0, 500.0, 5.0))
    c = ref.check_spectrum(found, ref.reference_roots(200.0, 500.0, 5.0), *ref.band(200.0, 500.0))
    assert (c.ok, c.known, len(found)) == (False, True, 1423)


def test_sweep_check_flags_a_moved_collapse():
    op = wl._sweep_op("v0", 3.0, 0.0, 8.0, 0.05, 1.0)
    branches, text = op.run()
    assert wl._check_collapses(branches, 3.0, dw.parameter_grid(0.0, 8.0, 0.05), 1.0).ok
    collapsed = next(b for b in branches if b.termination and b.termination[1] == "epsilon=-k")
    collapsed.termination = (collapsed.termination[0] + 1e-5, "epsilon=-k")
    assert not wl._check_collapses(branches, 3.0, dw.parameter_grid(0.0, 8.0, 0.05), 1.0).ok
    assert not wl._check_branch_csv(branches, text).ok


def test_states_check_flags_a_corrupted_csv():
    k, v0, L = 2.0, 3.0, 1.0
    op = wl._states_op(k, v0, L, ref.reference_roots(k, v0, L))
    out = op.run()
    assert all(c.ok for c in op.check(out))
    csvs = list(out[6])
    lines = csvs[0].splitlines()
    fields = lines[10].split(",")
    fields[1] = repr(float(fields[1]) + 1e-3)
    lines[10] = ",".join(fields)
    csvs[0] = "\n".join(lines) + "\n"
    bad = op.check(out[:6] + (csvs,) + out[7:])
    assert [c.ok for c in bad[1:]] == [False] + [True] * (len(bad) - 2)


def test_cli_check_flags_differing_stdout():
    want = wl._landau_text(1.0, 5, 0.0, 0.0)
    op = wl._cli_op("landau", ["landau", "--beta", "1.0"], lambda out: [wl._same_stdout(out, want)],
                    sys.executable, {}, str(HERE.parent))
    assert wl.cli_main(["landau", "--beta", "1.0"]) == (0, want)
    assert op.check(want)[0].ok
    assert not op.check(want.replace("1.4142", "1.4143"))[0].ok


def test_verify_check_rebuilds_the_route_line_from_the_library():
    code, stdout = wl.cli_main(["verify"])
    assert code == 0
    assert all(c.ok for c in wl._verify_checks(stdout, 2.0, 2.0, 1.0))
    miscounted = stdout.replace("routes 3/3/3", "routes 3/3/2", 1)
    assert [c.ok for c in wl._verify_checks(miscounted, 2.0, 2.0, 1.0)] == [False, True, True, True]
    failing = stdout.replace("PASS  bound", "FAIL  bound", 1)
    assert [c.ok for c in wl._verify_checks(failing, 2.0, 2.0, 1.0)] == [True, True, True, False]


def test_tracer_counts_calls_and_restores_functions():
    tracer = layers.Tracer()
    original = dw.find_roots
    undo = tracer.install()
    try:
        assert dw.find_roots is not original
        dw.sweep_v0(3.0, dw.parameter_grid(6.0, 8.0, 0.1))
    finally:
        tracer.uninstall(undo)
    assert dw.find_roots is original
    m = tracer.metrics()
    assert m["spectrum.find_roots_calls"] == 21
    assert m["spectrum.collapses"] == 2
    assert m["matching.secular_points"] > m["matching.secular_calls"] > 0
    assert m["oracle.shooting_calls"] == 0 and m["states.assemble_calls"] == 0
    assert 0.0 < m["spectrum.sweep_self_s"] < m["spectrum.find_roots_s"]


def test_tracer_fails_loudly_on_a_missing_function(monkeypatch):
    monkeypatch.delattr(sys.modules["diracwell.oracle"], "grid_eigenvalues")
    with pytest.raises(layers.MissingLayer, match="grid_eigenvalues"):
        layers.Tracer().install()
    assert not hasattr(dw.find_roots, "__wrapped__")


def test_import_times_attribute_nested_numpy_to_scipy():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:       400 |        400 |       numpy.linalg",
        "import time:       500 |        900 |     scipy.linalg",
        "import time:        50 |        950 |   scipy",
        "import time:        10 |       1260 | diracwell",
    ])
    times = layers.import_times(report)
    assert times == pytest.approx({"diracwell": 1260e-6, "numpy": 300e-6, "scipy": 950e-6})


def test_tail_has_ten_samples_beyond_it():
    import run

    value, pct = run.tail(list(range(40)))
    assert value == 29 and math.isclose(pct, 75.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)
