"""Root finding, admissible bands, parameter sweeps by level index, and the
closed-form dispersive level formulas."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracwell import (
    SpectrumBranch,
    branch_cut,
    branches_to_csv,
    branches_to_json_payload,
    count_bound_states,
    find_roots,
    general_secular,
    landau_levels_magnetic,
    landau_levels_proportional,
    parameter_grid,
    spectrum_to_csv,
    square_well_config,
    square_well_secular,
    sweep_k,
    sweep_v0,
)
from diracwell.errors import ConfigError, UnsupportedRegime
from diracwell import matching, spectrum
from diracwell.matching import _square_well_phase_slope
from diracwell.spectrum import (
    MAX_GRID_POINTS,
    NEWTON_CALLS,
    _levels_by_row,
)

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
    """The square well's band, as square_well_secular carries it."""

    def test_reference_bands(self):
        band = square_well_secular(3.0, 8.0)
        assert (band.lo, band.hi) == (-3.0, 3.0)
        band = square_well_secular(2.0, 2.0)
        assert (band.lo, band.hi) == (0.0, 2.0)

    def test_sign_of_k_is_immaterial(self):
        well, mirrored = square_well_secular(-3.0, 8.0), square_well_secular(3.0, 8.0)
        assert (well.lo, well.hi) == (mirrored.lo, mirrored.hi)

    def test_empty_cases(self):
        for k, v0, empty in ((2.0, 0.0, True), (2.0, -1.0, False), (0.0, 5.0, True)):
            # a barrier binds on the mirror band; zero momentum never binds
            sec = square_well_secular(k, v0)
            assert (not sec.lo < sec.hi) == empty

    def test_barrier_band_is_the_mirror_image(self):
        band = square_well_secular(2.0, -1.0)
        assert (band.lo, band.hi) == (-2.0, -1.0)
        for k, v0 in ((2.0, 5.0), (3.0, 8.0), (-1.5, 0.4)):
            well, barrier = square_well_secular(k, v0), square_well_secular(k, -v0)
            assert (barrier.lo, barrier.hi) == (-well.hi, -well.lo)


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

    def test_transfer_route_takes_few_calls(self):
        # the phases at the levels' start points narrow every bracket once:
        # without that, Newton steps on the transfer phase, which wiggles
        # within each half-turn, took 84 calls here
        secular = general_secular(square_well_config(500.0, 5.0), 200.0)
        calls = []

        def counted(eps):
            calls.append(np.size(eps))
            return secular.phase(eps)

        assert len(find_roots(dataclasses.replace(secular, phase=counted))) == 1425
        assert len(calls) <= 16


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
        # lo + inf * 0 is NaN, so an infinite step would give an empty grid
        for step in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="step must be positive"):
                parameter_grid(0.0, 1.0, step)

    def test_refuses_a_grid_of_too_many_points_before_allocating(self):
        tracemalloc.start()
        try:
            for lo, hi, step in ((0.0, 1e9, 1e-9), (0.0, 1e-300, 1e-310), (0.0, float(MAX_GRID_POINTS), 1.0)):
                with pytest.raises(ConfigError, match="points"):
                    parameter_grid(lo, hi, step)
            # bounds that are not finite are named, not counted as points
            for lo, hi in ((math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf)):
                with pytest.raises(ConfigError, match="grid bounds must be finite"):
                    parameter_grid(lo, hi, 0.1)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    def test_largest_grid_is_accepted(self):
        assert len(parameter_grid(0.0, MAX_GRID_POINTS - 1.0, 1.0)) == MAX_GRID_POINTS


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


class TestBatchedKernel:
    """Sweeps solve all parameter values in one pass; every row's roots
    must still be the single well's, bit for bit."""

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
        n = np.round((_square_well_phase_slope(k, roots, v0, half_width)[0] - 0.5 * np.pi) / np.pi)
        target = 0.5 * np.pi + n * np.pi
        slack = 4.0 * np.spacing(np.abs(target))
        reach = 2.0 * np.spacing(abs(k))
        left = _square_well_phase_slope(k, np.maximum(roots - reach, secular.lo), v0, half_width)[0]
        right = _square_well_phase_slope(k, np.minimum(roots + reach, secular.hi), v0, half_width)[0]
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

    @pytest.mark.parametrize("v0", [1e-10, -1e-10, 1e-17])
    def test_level_within_a_double_of_the_edge_raises(self, v0):
        # a well with k, v0 != 0 binds a level, as theta grows by more than pi
        # across its band; at |v0| = 1e-10 that level lies within one double
        # of |k| = 1, and at 1e-17 the band itself is narrower than a double
        with pytest.raises(UnsupportedRegime, match="within one double"):
            find_roots(square_well_secular(1.0, v0))
        with pytest.raises(UnsupportedRegime):
            count_bound_states(1.0, v0)
        with pytest.raises(UnsupportedRegime):
            sweep_v0(1.0, [0.0, v0, 0.5])
        with pytest.raises(UnsupportedRegime):
            sweep_k(v0, [0.0, 1.0])

    @pytest.mark.parametrize("v0", [1e8, 1e12, -1e8])
    def test_level_that_phase_rounding_moves_raises(self, v0):
        # theta ~ 2 v0 rounds by spacing(theta), which moves a root by that
        # over theta' ~ 2.5: 1.2e-8 at 1e8, far above DEFAULT_ROOT_TOL
        with pytest.raises(UnsupportedRegime, match="phase rounding moves"):
            find_roots(square_well_secular(2.0, v0))
        with pytest.raises(UnsupportedRegime, match="phase rounding moves"):
            sweep_v0(2.0, [1.0, v0])
        with pytest.raises(UnsupportedRegime, match="phase rounding moves"):
            count_bound_states(2.0, v0)  # the count is the solve's

    def test_zero_depth_or_momentum_stays_empty(self):
        assert find_roots(square_well_secular(1.0, 0.0)) == []
        assert find_roots(square_well_secular(0.0, 5.0)) == []
        assert count_bound_states(1.0, 0.0) == count_bound_states(0.0, -5.0) == 0
        assert sweep_v0(1.0, [0.0]) == sweep_k(5.0, [0.0]) == []


def halved_levels(k, v0, half_width, most=40):
    """Reference: level count and up to `most` roots {index: root}, each
    crossing theta = pi/2 + n pi halved on its own with scalar calls,
    ceil(log2(width / spacing(|k|))) times from the band's innermost doubles,
    in u = sign * eps, moving a to the midpoint where theta is at most the
    target and b where it is at least the target."""
    band = square_well_secular(k, v0, half_width)
    lo, hi = math.nextafter(band.lo, band.hi), math.nextafter(band.hi, band.lo)
    theta = lambda eps: float(_square_well_phase_slope(k, eps, v0, half_width)[0])
    s = -1.0 if theta(hi) < theta(lo) else 1.0
    u_lo, u_hi = sorted((s * lo, s * hi))
    t_lo, t_hi = sorted((theta(lo), theta(hi)))
    first = math.floor((t_lo - 0.5 * math.pi) / math.pi) + 1
    count = max(math.ceil((t_hi - 0.5 * math.pi) / math.pi) - first, 0)
    halvings = math.ceil(math.log2((u_hi - u_lo) / np.spacing(abs(k))))
    roots = {}
    for i in sorted({round(x) for x in np.linspace(0, count - 1, min(count, most))}):
        target, a, b = 0.5 * math.pi + (first + i) * math.pi, u_lo, u_hi
        for _ in range(halvings):
            mid = 0.5 * (a + b)
            th = theta(s * mid)
            a, b = (mid if th <= target else a), (mid if th >= target else b)
        roots[i if s > 0.0 else count - 1 - i] = s * 0.5 * (a + b)
    return count, roots


# the paper's two sweeps, the deep well and, unjittered, the benchmark's
# seeded depth and momentum sweeps
PHASE_CALL_CASES = {
    "sweep_v0-3-0:8:0.01": lambda: sweep_v0(3.0, parameter_grid(0.0, 8.0, 0.01)),
    "sweep_k-8-0.1:6:0.01": lambda: sweep_k(8.0, parameter_grid(0.1, 6.0, 0.01)),
    "well-200-500-5": lambda: find_roots(square_well_secular(200.0, 500.0, 5.0)),
    **{
        f"sweep_v0-{k}-0:{hi}-L{L}":
            lambda k=k, hi=hi, L=L: sweep_v0(k, parameter_grid(0.0, hi, hi / 100), L)
        for k, hi, L in ((1.5, 5.0, 1.0), (2.5, 7.0, 0.8), (3.5, 9.0, 1.2), (2.0, 6.0, 1.5))
    },
    **{
        f"sweep_k-{v0}-0.1:{hi}-L{L}":
            lambda v0=v0, hi=hi, L=L: sweep_k(v0, parameter_grid(0.1, hi, (hi - 0.1) / 100), L)
        for v0, hi, L in ((5.0, 3.0, 1.0), (7.0, 4.0, 0.8), (9.0, 5.0, 1.2), (6.0, 6.0, 1.5))
    },
}


class TestNewtonLevels:
    """Bracketed Newton steps on the phase: the slope, the number of batched
    phase calls, agreement with a scalar halving, termination."""

    def test_slope_is_the_derivative_and_theta_is_unchanged(self):
        rng = np.random.default_rng(7)
        for k, v0, half_width in ((2.0, 2.0, 1.0), (3.0, 8.0, 1.0), (50.0, 120.0, 3.0), (2.0, -5.0, 1.0)):
            band = square_well_secular(k, v0, half_width)
            eps = band.lo + (band.hi - band.lo) * rng.uniform(0.05, 0.95, 200)
            theta, slope = _square_well_phase_slope(k, eps, v0, half_width)
            p = np.sqrt(np.clip(k * k - eps**2, 0.0, None))
            q = np.sqrt(np.clip((eps + v0) ** 2 - k * k, 0.0, None))
            assert np.array_equal(theta, 2.0 * half_width * q + np.arctan2(eps * (eps + v0) - k * k, p * q))
            h = 1e-6 * (band.hi - band.lo)
            up, down = (_square_well_phase_slope(k, eps + d, v0, half_width)[0] for d in (h, -h))
            central = (up - down) / (2 * h)
            np.testing.assert_allclose(slope, central, rtol=1e-6)
            mirrored = _square_well_phase_slope(k, -eps, -v0, half_width)
            assert np.array_equal(mirrored[0], theta) and np.array_equal(mirrored[1], -slope)

    @pytest.mark.parametrize("solve", PHASE_CALL_CASES.values(), ids=PHASE_CALL_CASES.keys())
    def test_at_most_32_batched_phase_calls(self, monkeypatch, solve):
        calls = []
        original = matching._square_well_phase_slope

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(matching, "_square_well_phase_slope", counted)
        monkeypatch.setattr(spectrum, "_square_well_phase_slope", counted)
        solve()
        assert 0 < len(calls) <= 32

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.floats(-60.0, 60.0).filter(lambda k: abs(k) > 0.05),
        v0=st.one_of(st.floats(-500.0, -1e-4), st.floats(1e-4, 500.0)),
        half_width=st.floats(0.1, 3.0),
    )
    def test_roots_match_a_scalar_halving_of_theta(self, k, v0, half_width):
        count, expected = halved_levels(k, v0, half_width)
        roots = find_roots(square_well_secular(k, v0, half_width))
        assert len(roots) == count
        for i, root in expected.items():
            assert abs(roots[i] - root) <= 1e-11

    @pytest.mark.parametrize(
        "lo, hi",
        [([], []), ([1.0], [1.0]), ([-2.0, 0.0], [2.0, 1e-300]), ([-2.0], [-2.0 + 1e-15])],
    )
    def test_nothing_to_solve_takes_only_the_band_end_call(self, lo, hi):
        # rows without a crossing: theta stays within (-pi/2, pi/2)
        sizes = []

        def phase(rows, eps):
            sizes.append(eps.size)
            assert len(sizes) == 1, "a call after the band's ends"
            return 0.1 * eps, np.full(eps.shape, 0.1)

        lo, hi = np.array(lo), np.array(hi)
        rows, n, roots = _levels_by_row(phase, lo, hi, np.zeros(lo.shape, dtype=bool))
        assert rows.size == n.size == roots.size == 0

    def test_a_misleading_slope_still_terminates(self):
        # a slope 1000 times too steep creeps toward every root; after
        # NEWTON_CALLS calls the open levels are bisected
        k, v0, half_width = np.array([3.0]), np.array([8.0]), 1.0
        calls = []

        def steep(rows, eps):
            calls.append(1)
            theta, slope = _square_well_phase_slope(k[rows], eps, v0[rows], half_width)
            return theta, 1e3 * slope

        lo, hi = matching._band(k, (0.0, -v0, 0.0))
        _, _, roots = _levels_by_row(steep, lo, hi, np.array([True]))
        np.testing.assert_allclose(roots, find_roots(square_well_secular(3.0, 8.0)), rtol=0.0, atol=1e-14)
        assert NEWTON_CALLS < len(calls) <= NEWTON_CALLS + 60


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
        with pytest.raises(ConfigError):
            landau_levels_magnetic(1.0, -1)
        with pytest.raises(UnsupportedRegime):
            landau_levels_proportional(1.0, 1.0, 0.0, 1)
        with pytest.raises(UnsupportedRegime):
            landau_levels_proportional(-1.2, 1.0, 0.0, 1)
        with pytest.raises(ConfigError):
            landau_levels_proportional(0.5, -1.0, 0.0, 1)
        with pytest.raises(ConfigError):
            landau_levels_proportional(0.5, 1.0, 0.0, -2)
        # a float or bool names no level: 1.5 would give +-sqrt(3)
        for n in (1.5, 2.0, True, np.float64(1.0)):
            with pytest.raises(ConfigError, match="integer"):
                landau_levels_magnetic(1.0, n)
            with pytest.raises(ConfigError, match="integer"):
                landau_levels_proportional(0.5, 1.0, 0.0, n)
        assert landau_levels_magnetic(1.0, np.int64(1)) == landau_levels_magnetic(1.0, 1)

    def test_level_that_overflows_raises(self):
        # 2 n beta is inf at n = 1: refused, never returned as a level
        assert landau_levels_magnetic(1e308, 0) == (0.0, 0.0)
        with pytest.raises(UnsupportedRegime, match="overflows"):
            landau_levels_magnetic(1e308, 1)
        with pytest.raises(UnsupportedRegime, match="overflows"):
            landau_levels_proportional(0.5, 1e308, 1.0, 2)

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


def _tuple_csv(branches):
    """The reference writer: one (param, index, epsilon) tuple per sample,
    a stable sort on (param, index) and repr of every value."""
    rows = []
    for b in branches:
        for p, e in zip(b.params, b.epsilons):
            rows.append((p, b.index, e))
    rows.sort(key=lambda t: (t[0], t[1]))
    lines = ["param,branch,epsilon"]
    lines += [f"{p!r},{i},{e!r}" for p, i, e in rows]
    for b in branches:
        if b.termination is not None:
            p_star, boundary = b.termination
            lines.append(f"{p_star!r},{b.index},termination={boundary}")
    return "\n".join(lines) + "\n"


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def branch_lists(draw, distinct=False):
    """Branches sampling a few shared parameter values, 0.0 and -0.0 among
    them, with repeated and interleaved indices (distinct ones, in a drawn
    order, if asked) and both termination kinds."""
    pool = [0.0, -0.0] + draw(st.lists(FINITE, min_size=1, max_size=5))
    branches = []
    count = draw(st.integers(0, 6))
    order = draw(st.permutations(range(count))) if distinct else None
    for i in range(count):
        params = draw(st.lists(st.sampled_from(pool), max_size=8))
        epsilons = draw(st.lists(FINITE, min_size=len(params), max_size=len(params)))
        branch = SpectrumBranch("v0", order[i] if distinct else draw(st.integers(0, 3)), params, epsilons)
        boundary = draw(st.sampled_from([None, "epsilon=-k", "band edge", "lower band edge"]))
        if boundary is not None:
            branch.termination = (draw(st.sampled_from(pool)), boundary)
        branches.append(branch)
    return branches


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

    @settings(max_examples=300, deadline=None)
    @given(branches=branch_lists())
    def test_branches_csv_equals_the_tuple_writer(self, branches):
        assert branches_to_csv(branches) == _tuple_csv(branches)

    def test_branches_csv_keeps_each_zero_sign_and_ties_in_input_order(self):
        a = SpectrumBranch("v0", 1, params=[0.0, -0.0], epsilons=[1.0, 2.0])
        b = SpectrumBranch("v0", 0, params=[-0.0, 0.0], epsilons=[3.0, 4.0])
        assert branches_to_csv([a, b]).splitlines()[1:] == [
            "-0.0,0,3.0", "0.0,0,4.0", "0.0,1,1.0", "-0.0,1,2.0"
        ]
        assert branches_to_csv([a, b]) == _tuple_csv([a, b])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_branches_csv_refuses_a_parameter_that_is_not_finite(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            branches_to_csv([SpectrumBranch("v0", 0, params=[1.0, bad], epsilons=[0.5, 0.25])])
        ended = SpectrumBranch("v0", 0, params=[1.0], epsilons=[0.5], termination=(bad, "band edge"))
        with pytest.raises(ConfigError, match="finite"):
            branches_to_csv([ended])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_branches_csv_refuses_an_energy_that_is_not_finite(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            branches_to_csv([SpectrumBranch("k", 0, params=[1.0, 2.0], epsilons=[bad, 0.25])])

    def test_branches_csv_refuses_a_branch_without_one_energy_per_parameter(self):
        with pytest.raises(ConfigError, match="one energy per parameter"):
            branches_to_csv([SpectrumBranch("k", 0, params=[1.0, 2.0], epsilons=[0.5])])

    def test_branches_json_payload(self):
        a = SpectrumBranch("k", 0, params=[1.0], epsilons=[0.5])
        payload = branches_to_json_payload([a])
        assert payload == [
            {"param_name": "k", "index": 0, "samples": [[1.0, 0.5]], "termination": None}
        ]

    @settings(max_examples=100, deadline=None)
    @given(branches=branch_lists())
    def test_branches_json_payload_equals_the_zip_writer(self, branches):
        # the payload's JSON text, for finite samples, is the one the
        # per-branch zip writer gave
        def zipped(b):
            end = None if b.termination is None else {"param": b.termination[0], "boundary": b.termination[1]}
            return {"param_name": b.param_name, "index": b.index,
                    "samples": [[p, e] for p, e in zip(b.params, b.epsilons)], "termination": end}

        assert json.dumps(branches_to_json_payload(branches)) == json.dumps([zipped(b) for b in branches])

    @settings(max_examples=200, deadline=None)
    @given(branches=branch_lists(distinct=True))
    def test_sweep_json_and_csv_parse_to_the_same_branches(self, branches):
        # branch by branch: the samples in the CSV's order (by parameter,
        # ties in input order) and the termination, compared by their bits
        def hexed(*values):
            return tuple(map(float.hex, values))

        from_csv = {b.index: ([], None) for b in branches}
        for row in branches_to_csv(branches).splitlines()[1:]:
            param, index, value = row.split(",", 2)
            samples, end = from_csv[int(index)]
            if value.startswith("termination="):
                end = (hexed(float(param)), value.removeprefix("termination="))
            else:
                samples.append(hexed(float(param), float(value)))
            from_csv[int(index)] = samples, end
        from_json = {}
        for b in json.loads(json.dumps(branches_to_json_payload(branches))):
            end = b["termination"] and (hexed(b["termination"]["param"]), b["termination"]["boundary"])
            from_json[b["index"]] = [hexed(*s) for s in sorted(b["samples"], key=lambda s: s[0])], end
        assert from_json == from_csv

    @pytest.mark.parametrize("writer", [branches_to_csv, branches_to_json_payload])
    @pytest.mark.parametrize("branch, message", [
        *((SpectrumBranch("k", 0, [1.0, bad], [0.5, 0.25]), "finite") for bad in (math.nan, math.inf, -math.inf)),
        *((SpectrumBranch("k", 0, [1.0, 2.0], [bad, 0.25]), "finite") for bad in (math.nan, math.inf, -math.inf)),
        *((SpectrumBranch("k", 0, [1.0], [0.5], (bad, "band edge")), "finite")
          for bad in (math.nan, math.inf, -math.inf)),
        (SpectrumBranch("k", 0, [math.nan, 1.0], [0.5, 1.0], (math.inf, "band edge")), "finite"),
        (SpectrumBranch("k", 0, [1.0, 2.0], [0.5]), "one energy per parameter"),
        (SpectrumBranch("k", 0, [1.0], [0.5, 0.25]), "one energy per parameter"),
    ])
    def test_both_sweep_writers_refuse_the_same_branches(self, writer, branch, message):
        # the JSON writer would write NaN and Infinity, which is not strict
        # JSON, and its zip would drop the extra samples without a word
        good = SpectrumBranch("k", 1, [0.5], [0.125])
        with pytest.raises(ConfigError, match=message):
            writer([good, branch])

    def test_csv_is_deterministic(self):
        branches = sweep_v0(3.0, parameter_grid(0.0, 4.0, 0.5))
        assert branches_to_csv(branches) == branches_to_csv(
            sweep_v0(3.0, parameter_grid(0.0, 4.0, 0.5))
        )
