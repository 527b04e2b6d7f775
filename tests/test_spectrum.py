"""Root finding, admissible bands, parameter sweeps by level index, and the
closed-form dispersive level formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracwell import (
    SpectrumBranch,
    admissible_interval,
    branch_cut,
    branches_to_csv,
    branches_to_json_payload,
    count_bound_states,
    find_roots,
    landau_levels_magnetic,
    landau_levels_proportional,
    parameter_grid,
    spectrum_to_csv,
    square_well_secular,
    sweep_k,
    sweep_v0,
)
from diracwell.errors import ConfigError, InvalidLevel, UnsupportedRegime
from diracwell.matching import _square_well_phase, general_secular, square_well_config
from diracwell.spectrum import DEFAULT_SCAN_POINTS, EDGE_MARGIN, _scan_grid

WELL22_ROOTS = (0.35427361798250695, 1.1335605119300567, 1.9258300731147544)
WELL38_ROOTS = (
    -2.5426728380941737,
    -1.3606762820366085,
    -0.12346698716841381,
    1.1212674409285115,
    2.3198663506103947,
)
# depths where 2L sqrt((v0 - k)^2 - k^2) = n pi at k = 3, L = 1
COLLAPSE_DEPTHS_K3 = (6.386355134989882, 7.343915791206059)


class TestAdmissibleBand:
    def test_reference_bands(self):
        band = admissible_interval(3.0, 8.0)
        assert (band.lo, band.hi) == (-3.0, 3.0)
        band = admissible_interval(2.0, 2.0)
        assert (band.lo, band.hi) == (0.0, 2.0)

    def test_sign_of_k_is_immaterial(self):
        assert admissible_interval(-3.0, 8.0) == admissible_interval(3.0, 8.0)

    def test_empty_cases(self):
        assert admissible_interval(2.0, 0.0).empty
        assert not admissible_interval(2.0, -1.0).empty  # a barrier binds on the mirror band
        assert admissible_interval(0.0, 5.0).empty  # zero momentum never binds

    def test_barrier_band_is_the_mirror_image(self):
        band = admissible_interval(2.0, -1.0)
        assert (band.lo, band.hi) == (-2.0, -1.0)
        for k, v0 in ((2.0, 5.0), (3.0, 8.0), (-1.5, 0.4)):
            well, barrier = admissible_interval(k, v0), admissible_interval(k, -v0)
            assert (barrier.lo, barrier.hi) == (-well.hi, -well.lo)

    def test_contains(self):
        band = admissible_interval(2.0, 2.0)
        assert band.contains(1.0)
        assert not band.contains(0.0)  # open interval
        assert not band.contains(1.9999, margin=1e-3)


class TestFindRoots:
    def test_reference_well(self):
        roots = find_roots(square_well_secular(2.0, 2.0))
        assert len(roots) == 3
        for got, want in zip(roots, (0.354274, 1.133561, 1.925830)):
            assert got == pytest.approx(want, abs=1e-5)

    def test_deeper_well(self):
        roots = find_roots(square_well_secular(3.0, 8.0))
        assert roots == pytest.approx(WELL38_ROOTS, abs=1e-9)

    def test_empty_band_gives_no_roots(self):
        assert find_roots(square_well_secular(2.0, 0.0)) == []
        assert find_roots(square_well_secular(0.0, 5.0)) == []

    def test_roots_are_sorted_and_interior(self):
        roots = find_roots(square_well_secular(3.0, 8.0))
        assert roots == sorted(roots)
        assert all(-3.0 + 1e-6 < r < 3.0 - 1e-6 for r in roots)

    def test_counts(self):
        assert count_bound_states(3.0, 8.0) == 5
        assert count_bound_states(2.0, 2.0) == 3
        assert count_bound_states(2.0, 0.0) == 0

    @pytest.mark.parametrize(
        "k,v0,half_width,count",
        [(2.0, 1e-4, 1.0, 1), (12.0, 35.0, 2.0, 34), (200.0, 500.0, 5.0, 1425),
         (1000.0, 3000.0, 10.0, 13631), (2.0, -5.0, 1.0, 4)],
    )
    def test_levels_a_scan_missed(self, k, v0, half_width, count):
        # a weakly bound level, a level inside the first scan cell, two deep
        # wells that lost levels to shared or edge scan cells, and a barrier
        roots = find_roots(square_well_secular(k, v0, half_width))
        assert len(roots) == count_bound_states(k, v0, half_width) == count

    @pytest.mark.parametrize("scan_points", [1, 0, -5])
    def test_rejects_too_few_scan_points(self, scan_points):
        with pytest.raises(ConfigError):
            find_roots(square_well_secular(3.0, 8.0), scan_points=scan_points)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan"), float("inf")])
    def test_rejects_tolerance_that_is_not_finite_and_positive(self, tol):
        with pytest.raises(ConfigError):
            find_roots(square_well_secular(2.0, 2.0), tol=tol)

    def test_tolerance_below_double_spacing_terminates(self):
        secular = general_secular(square_well_config(2.0), 2.0)
        tiny = find_roots(secular, tol=1e-300)
        assert len(tiny) == 3
        np.testing.assert_allclose(tiny, find_roots(secular), rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("edge_margin", [float("nan"), -1e-6, float("inf")])
    def test_rejects_edge_margin_that_is_not_finite_and_non_negative(self, edge_margin):
        with pytest.raises(ConfigError):
            find_roots(square_well_secular(2.0, 2.0), edge_margin=edge_margin)

    def test_scan_resolution_consistency(self):
        secular = general_secular(square_well_config(8.0), 3.0)
        coarse = find_roots(secular, scan_points=500)
        fine = find_roots(secular, scan_points=5000)
        assert coarse == pytest.approx(fine, abs=1e-8)


class TestParameterGrid:
    def test_endpoint_inclusive_when_exact(self):
        np.testing.assert_allclose(parameter_grid(0.0, 1.0, 0.25), [0, 0.25, 0.5, 0.75, 1.0])

    def test_endpoint_dropped_when_unreachable(self):
        np.testing.assert_allclose(parameter_grid(0.0, 1.0, 0.3), [0, 0.3, 0.6, 0.9])

    def test_no_drift_accumulation(self):
        grid = parameter_grid(0.0, 8.0, 0.01)
        assert len(grid) == 801
        assert grid[-1] == pytest.approx(8.0, abs=1e-12)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            parameter_grid(0.0, 1.0, 0.0)


class TestSweeps:
    def test_rejects_non_finite_or_flat_wells(self):
        grid = parameter_grid(0.5, 2.0, 0.5)
        for call in (
            lambda: sweep_k(math.nan, grid),
            lambda: sweep_k(8.0, np.append(grid, math.inf)),
            lambda: sweep_k(8.0, grid, half_width=0.0),
            lambda: sweep_v0(math.inf, grid),
            lambda: sweep_v0(3.0, np.append(grid, math.nan)),
            lambda: sweep_v0(3.0, grid, half_width=-1.0),
        ):
            with pytest.raises(ConfigError):
                call()

    def test_sweep_k_cut_matches_direct_solve(self):
        branches = sweep_k(8.0, parameter_grid(2.8, 3.2, 0.1))
        cut = branch_cut(branches, 3.0)
        assert cut == pytest.approx(WELL38_ROOTS, abs=1e-9)

    def test_sweep_k_branches_are_monotone_samples(self):
        branches = sweep_k(8.0, parameter_grid(0.5, 4.0, 0.1))
        for b in branches:
            assert b.params == sorted(b.params)
            assert len(b.params) == len(b.epsilons)

    def test_sweep_v0_collapse_terminations(self):
        branches = sweep_v0(3.0, parameter_grid(0.0, 8.0, 0.1))
        hits = sorted(
            b.termination[0] for b in branches
            if b.termination is not None and b.termination[1] == "epsilon=-k"
        )
        assert len(hits) == 2
        assert hits == pytest.approx(COLLAPSE_DEPTHS_K3, abs=1e-12)

    def test_sweep_v0_rows_hold_every_level(self):
        params = parameter_grid(0.0, 8.0, 0.01)
        branches = sweep_v0(3.0, params)
        for v0 in params:
            assert len(branch_cut(branches, v0)) == count_bound_states(3.0, v0)

    def test_sweep_v0_shallow_well_never_collapses(self):
        branches = sweep_v0(2.0, parameter_grid(0.0, 2.0, 0.1))
        assert not any(
            b.termination is not None and b.termination[1] == "epsilon=-k"
            for b in branches
        )

    def test_branch_count_grows_with_depth(self):
        branches = sweep_v0(3.0, parameter_grid(0.0, 8.0, 0.1))
        assert len(branches) == 7  # five survive to v0=8, two collapsed

    def test_cut_consistency_between_sweeps(self):
        kb = sweep_k(8.0, parameter_grid(2.9, 3.1, 0.1))
        vb = sweep_v0(3.0, parameter_grid(7.9, 8.1, 0.1))
        assert branch_cut(kb, 3.0) == pytest.approx(branch_cut(vb, 8.0), abs=1e-9)


def samples_by_param(branches):
    out = {}
    for b in branches:
        for p, e in zip(b.params, b.epsilons):
            out.setdefault(p, []).append(e)
    return {p: sorted(es) for p, es in out.items()}


def scalar_roots(secular, tol=1e-10, margin=EDGE_MARGIN):
    """Reference: the same scan, then one scalar bisection per bracket."""
    grid = _scan_grid(np.array([secular.lo]), np.array([secular.hi]), DEFAULT_SCAN_POINTS, margin)[0]
    vals = secular(grid)
    roots = [float(x) for x in grid[vals == 0.0]]
    for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
        a, b, fa = grid[i], grid[i + 1], vals[i]
        while b - a > tol:
            mid = 0.5 * (a + b)
            fm = secular(mid)
            if fm == 0.0:
                a = b = mid
            elif (fa < 0.0) == (fm < 0.0):
                a, fa = mid, fm
            else:
                b = mid
        roots.append(float(0.5 * (a + b)))
    return sorted(r for r in roots if r - secular.lo > margin and secular.hi - r > margin)


class TestBatchedKernel:
    """Scanned brackets are bisected in lockstep and sweeps solve all
    parameter values in one pass; every root must still be the scalar
    bisection's, or the single well's, bit for bit."""

    @pytest.mark.parametrize("k,v0,half_width", [(2, 2, 1), (3, 8, 1), (-4, 11, 0.7), (50, 120, 3)])
    def test_roots_equal_scalar_bisection(self, k, v0, half_width):
        secular = general_secular(square_well_config(v0, half_width), k)
        assert find_roots(secular) == scalar_roots(secular)

    def test_sweep_k_rows_equal_single_solves(self):
        params = parameter_grid(-3.0, 3.0, 0.5)  # hits k = 0 exactly
        samples = samples_by_param(sweep_k(8.0, params))
        assert 0.0 in params and 0.0 not in samples  # empty band at k = 0
        for k in params:
            assert samples.get(float(k), []) == find_roots(square_well_secular(k, 8.0))

    def test_sweep_v0_rows_equal_single_solves(self):
        params = parameter_grid(0.0, 8.0, 0.1)
        branches = sweep_v0(3.0, params)
        collapses = [b for b in branches if b.termination and b.termination[1] == "epsilon=-k"]
        assert len(collapses) == 2
        samples = samples_by_param(branches)
        for v0 in params:
            assert samples.get(float(v0), []) == find_roots(square_well_secular(3.0, v0))

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.floats(-15.0, 15.0).filter(lambda k: abs(k) > 0.1),
        v0=st.floats(0.0, 40.0),
        half_width=st.floats(0.2, 3.0),
        tol=st.sampled_from([1e-10, 1e-7, 1e-4]),
    )
    def test_every_root_sits_in_a_sign_changing_bracket(self, k, v0, half_width, tol):
        secular = general_secular(square_well_config(v0, half_width), k)
        for r in find_roots(secular, tol=tol):
            # the final bracket lies on the scan, inside the edge margins
            probes = np.clip([r - 0.5 * tol, r + 0.5 * tol], secular.lo + EDGE_MARGIN, secular.hi - EDGE_MARGIN)
            left, right = secular(probes)
            assert secular(r) == 0.0 or left * right < 0.0


class TestPhaseLevels:
    """Square-well levels indexed by phase, over barriers, deep wells and
    wide wells."""

    @settings(max_examples=80, deadline=None)
    @given(
        k=st.floats(-60.0, 60.0).filter(lambda k: abs(k) > 0.05),
        v0=st.one_of(st.floats(-500.0, -1e-4), st.floats(1e-4, 500.0)),
        half_width=st.floats(0.1, 10.0),
    )
    def test_levels_are_the_phase_crossings(self, k, v0, half_width):
        secular = square_well_secular(k, v0, half_width)
        roots = np.array(find_roots(secular))
        assert len(roots) == count_bound_states(k, v0, half_width)
        assert np.all((secular.lo < roots) & (roots < secular.hi))
        assert np.all(np.diff(roots) > 0.0)
        # theta passes pi/2 + n pi within two double spacings of |k| of each
        # root, up to its own rounding, and n steps by one from root to root
        n = np.round((_square_well_phase(k, roots, v0, half_width) - 0.5 * np.pi) / np.pi)
        target = 0.5 * np.pi + n * np.pi
        slack = 4.0 * np.spacing(np.abs(target))
        reach = 2.0 * np.spacing(abs(k))
        left = _square_well_phase(k, np.maximum(roots - reach, secular.lo), v0, half_width)
        right = _square_well_phase(k, np.minimum(roots + reach, secular.hi), v0, half_width)
        assert np.all(np.minimum(left, right) - slack <= target)
        assert np.all(target <= np.maximum(left, right) + slack)
        assert np.all(np.abs(np.diff(n)) == 1)
        mirrored = find_roots(square_well_secular(k, -v0, half_width))
        assert mirrored == [-r for r in reversed(roots.tolist())]

    @pytest.mark.parametrize("v0", [1e17, -1e17, 1e200])
    def test_unresolvable_phase_raises(self, v0):
        # theta = 2 L q reaches 2e17, where doubles lie 32 apart, so crossings
        # pi apart cannot be told apart; at 1e200 q overflows to inf
        with pytest.raises(UnsupportedRegime, match="not distinct doubles"):
            find_roots(square_well_secular(2.0, v0))
        with pytest.raises(UnsupportedRegime):
            count_bound_states(2.0, v0)
        with pytest.raises(UnsupportedRegime):
            sweep_v0(2.0, [1.0, v0])


class TestLandauLevels:
    def test_magnetic_reference_values(self):
        assert landau_levels_magnetic(1.0, 0) == (0.0, 0.0)
        plus, minus = landau_levels_magnetic(1.0, 1)
        assert plus == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert minus == -plus
        plus, _ = landau_levels_magnetic(2.0, 2)
        assert plus == pytest.approx(math.sqrt(8.0), abs=1e-12)

    def test_magnetic_is_k_free_and_symmetric(self):
        for n in range(4):
            plus, minus = landau_levels_magnetic(0.7, n)
            assert plus >= 0.0
            assert plus + minus == pytest.approx(0.0, abs=0.0)

    def test_proportional_reference_values(self):
        plus, minus = landau_levels_proportional(0.5, 1.0, 2.0, 1)
        assert plus == pytest.approx(0.13975352847738898, abs=1e-12)
        assert minus == pytest.approx(-2.1397535284773888, abs=1e-12)

    def test_proportional_ground_level_is_drifted_zero(self):
        plus, minus = landau_levels_proportional(0.3, 2.0, 1.5, 0)
        assert plus == minus == pytest.approx(-0.45, abs=1e-12)

    def test_proportional_reduces_to_magnetic(self):
        for n in range(4):
            assert landau_levels_proportional(0.0, 1.3, 2.0, n) == pytest.approx(
                landau_levels_magnetic(1.3, n)
            )

    def test_flat_band_compression(self):
        # level spacing shrinks by (1 - alpha^2)^{3/4}
        gap = lambda a: landau_levels_proportional(a, 1.0, 0.0, 1)[0]
        assert gap(0.9) < gap(0.5) < gap(0.0)
        assert gap(0.9) == pytest.approx((1 - 0.81) ** 0.75 * math.sqrt(2.0), abs=1e-12)

    def test_error_paths(self):
        with pytest.raises(ConfigError):
            landau_levels_magnetic(0.0, 1)
        with pytest.raises(InvalidLevel):
            landau_levels_magnetic(1.0, -1)
        with pytest.raises(UnsupportedRegime):
            landau_levels_proportional(1.0, 1.0, 0.0, 1)
        with pytest.raises(UnsupportedRegime):
            landau_levels_proportional(-1.2, 1.0, 0.0, 1)
        with pytest.raises(ConfigError):
            landau_levels_proportional(0.5, -1.0, 0.0, 1)
        with pytest.raises(InvalidLevel):
            landau_levels_proportional(0.5, 1.0, 0.0, -2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_raise_config_error(self, bad):
        with pytest.raises(ConfigError, match="beta"):
            landau_levels_magnetic(bad, 1)
        with pytest.raises(ConfigError, match="beta"):
            landau_levels_proportional(0.5, bad, 0.0, 1)
        with pytest.raises(ConfigError, match="alpha"):
            landau_levels_proportional(bad, 1.0, 0.0, 1)
        with pytest.raises(ConfigError, match="k must"):
            landau_levels_proportional(0.5, 1.0, bad, 1)


class TestSerialization:
    def test_spectrum_csv(self):
        assert spectrum_to_csv([0.5, 1.25]) == "n,epsilon\n0,0.5\n1,1.25\n"
        assert spectrum_to_csv([]) == "n,epsilon\n"

    def test_branches_csv_layout(self):
        a = SpectrumBranch("v0", 0, params=[1.0, 2.0], epsilons=[-0.5, -0.75])
        a.termination = (2.5, "epsilon=-k")
        b = SpectrumBranch("v0", 1, params=[2.0], epsilons=[0.25])
        text = branches_to_csv([a, b])
        assert text.splitlines() == [
            "param,branch,epsilon",
            "1.0,0,-0.5",
            "2.0,0,-0.75",
            "2.0,1,0.25",
            "2.5,0,termination=epsilon=-k",
        ]

    def test_branches_json_payload(self):
        a = SpectrumBranch("k", 0, params=[1.0], epsilons=[0.5])
        payload = branches_to_json_payload([a])
        assert payload == [
            {"param_name": "k", "index": 0, "samples": [[1.0, 0.5]], "termination": None}
        ]

    def test_csv_is_deterministic(self):
        branches = sweep_v0(3.0, parameter_grid(0.0, 4.0, 0.5))
        assert branches_to_csv(branches) == branches_to_csv(
            sweep_v0(3.0, parameter_grid(0.0, 4.0, 0.5))
        )
