"""Independent numerical routes: grid diagonalization of the reduced
second-order problem and two-sided shooting on the first-order system.
These share no algebra with the matching construction they check."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from diracwell import (
    CoulombLike,
    FieldConfig,
    Linear,
    Lorentzian,
    PiecewiseConstant,
    QuantumLabel,
    Tanh,
    dirac_shooting,
    find_roots,
    general_secular,
    grid_eigenvalues,
    landau_levels_proportional,
    proportional_oscillator_levels,
    shooting_bound_states,
    square_well,
    square_well_config,
    square_well_secular,
)
from diracwell import oracle
from diracwell.errors import ConfigError, OutsideAdmissibleBand, UnsupportedRegime
from diracwell.oracle import GridSpec
from test_matching import piecewise_wells

WELL22_ROOTS = (0.35427361798250695, 1.1335605119300567, 1.9258300731147544)
# shooting zero set of the Lorentzian well, strength -2, k = 2, step 0.01
LORENTZ_ROOTS = (0.567247, 1.304795, 1.696057, 1.881440, 1.957666)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 1.0, 100)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 2)

    @pytest.mark.parametrize("x_min, x_max", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf),
                                              (-math.inf, 1.0), (-math.inf, math.inf)])
    def test_non_finite_bounds(self, x_min, x_max):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(x_min, x_max, 10)

    @pytest.mark.parametrize("points", [10.5, 100.0, "100", None])
    def test_points_must_be_an_integer(self, points):
        # a float count reached numpy's TypeError in grid_eigenvalues
        with pytest.raises(ValueError, match="integer"):
            GridSpec(0.0, 1.0, points)

    def test_numpy_integer_points(self):
        spec = GridSpec(0.0, 1.0, np.int64(11))
        assert spec.spacing == GridSpec(0.0, 1.0, 11).spacing

    def test_spacing(self):
        assert GridSpec(0.0, 1.0, 11).spacing == pytest.approx(0.1)

    def test_points_whose_dense_matrix_exceeds_the_cap_are_refused_before_any_allocation(self):
        # the DVR matrix is dense, (points - 2)^2 doubles; np.int64(2**40)
        # would wrap to a small square in int64 arithmetic
        top = math.isqrt(oracle.GRID_MATRIX_CAP) + 2
        assert GridSpec(0.0, 1.0, top).points == top
        tracemalloc.start()
        try:
            for points in (top + 1, 10**12, np.int64(2**40)):
                with pytest.raises(ConfigError, match="dense matrix"):
                    GridSpec(0.0, 1.0, points)
            assert tracemalloc.get_traced_memory()[1] < 1 << 16
        finally:
            tracemalloc.stop()


class TestGridEigenvalues:
    def test_particle_in_a_box(self):
        # the sine DVR is exact on the box's modes: u = 0 on [0, pi] gives
        # j^2, up to rounding of about eps ||H|| = eps (points - 2)^2
        vals = grid_eigenvalues(lambda x: 0.0 * x, GridSpec(0.0, math.pi, 65), 63)
        j = np.arange(1, 64)
        np.testing.assert_allclose(vals, j * j, rtol=1e-12, atol=0.0)

    def test_shifted_oscillator(self):
        # u = x^2 - 1 has exact levels 0, 2, 4, ...
        vals = grid_eigenvalues(lambda x: x * x - 1.0, GridSpec(-12.0, 12.0, 129), 3)
        np.testing.assert_allclose(vals, [0.0, 2.0, 4.0], rtol=0.0, atol=1e-12)

    def test_potential_is_sampled_on_the_interior_points(self):
        seen = []
        grid_eigenvalues(lambda x: seen.append(x) or 0.0 * x, GridSpec(-1.0, 3.0, 9), 1)
        np.testing.assert_allclose(seen[0], np.arange(1, 8) * 0.5 - 1.0, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("count", [0, -1, 2.5, True, "3", None])
    def test_count_must_be_a_positive_integer(self, count):
        # a slice of the eigenvalues would silently drop a level for -1
        with pytest.raises(ConfigError, match="count"):
            grid_eigenvalues(lambda x: x * x, GridSpec(-1.0, 1.0, 9), count)

    def test_count_above_the_interior_points_is_refused(self):
        spec = GridSpec(-1.0, 1.0, 9)
        assert len(grid_eigenvalues(lambda x: x * x, spec, np.int64(7))) == 7
        with pytest.raises(ConfigError, match="7 interior"):
            grid_eigenvalues(lambda x: x * x, spec, 8)


class TestFactorizationPartners:
    def test_partner_spectra_are_degenerate_above_ground(self):
        # superpotential w = x: partners w^2 - w' = x^2 - 1 and
        # w^2 + w' = x^2 + 1 with spectra {0,2,4,...} and {2,4,6,...}; the
        # upper partner reproduces the base spectrum from its first level
        # shifted by one index
        spec = GridSpec(-12.0, 12.0, 129)
        base = grid_eigenvalues(lambda x: x * x - 1.0, spec, 4)
        mate = grid_eigenvalues(lambda x: x * x + 1.0, spec, 3)
        np.testing.assert_allclose(base, [0.0, 2.0, 4.0, 6.0], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(mate, base[1:], rtol=0.0, atol=1e-12)


OSCILLATOR_GRID = [(alpha, beta) for alpha in (0.0, 0.3, 0.6, 0.9) for beta in (0.05, 0.5, 1.0, 3.0, 40.0)]


class TestProportionalOscillator:
    @pytest.mark.parametrize("alpha, beta", OSCILLATOR_GRID)
    def test_levels_match_closed_form(self, alpha, beta):
        # level n at 2 n beta sqrt(1 - alpha^2), n = 0 measured on the scale
        scale = beta * math.sqrt(1.0 - alpha * alpha)
        n = np.arange(6)
        levels = proportional_oscillator_levels(alpha, beta, 6)
        assert np.max(np.abs(levels - 2.0 * n * scale) / (scale * np.maximum(2.0 * n, 1.0))) < 1e-11

    @pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (0.6, 0.05), (0.9, 40.0)])
    def test_levels_are_converged_in_points_and_span(self, alpha, beta):
        # 1.5 times the points on a window 2 oscillator lengths wider
        scale = beta * math.sqrt(1.0 - alpha * alpha)
        reach = (oracle.OSCILLATOR_SPAN + 2.0) / math.sqrt(scale)
        wide = GridSpec(-reach, reach, 3 * (oracle.OSCILLATOR_POINTS - 1) // 2 + 1)
        count = oracle.OSCILLATOR_LEVELS
        levels = proportional_oscillator_levels(alpha, beta, count)
        finer = grid_eigenvalues(lambda x: scale**2 * x**2 - scale, wide, count)
        assert np.max(np.abs(levels - finer) / np.maximum(finer, scale)) < 1e-12

    def test_highest_accepted_level_matches_closed_form(self):
        count = oracle.OSCILLATOR_LEVELS
        n = np.arange(count)
        levels = proportional_oscillator_levels(0.0, 1.0, count)
        assert np.max(np.abs(levels - 2.0 * n) / np.maximum(2.0 * n, 1.0)) < 1e-11

    @pytest.mark.parametrize("count", [oracle.OSCILLATOR_LEVELS + 1, 90, 120])
    def test_count_the_window_cannot_hold_is_refused(self, count):
        # their highest level comes within OSCILLATOR_MARGIN oscillator
        # lengths of a wall, in position and in momentum alike
        with pytest.raises(UnsupportedRegime, match="oscillator window"):
            proportional_oscillator_levels(0.0, 1.0, count)

    @pytest.mark.parametrize("count", [0, -1, 2.5, True])
    def test_count_must_be_a_positive_integer(self, count):
        with pytest.raises(ConfigError, match="count"):
            proportional_oscillator_levels(0.5, 1.0, count)

    def test_matches_dispersive_formula(self):
        # the level formula and the oscillator reduction agree through
        # mu = (eps + alpha k)^2 / (1 - alpha^2)
        alpha, beta, k = 0.5, 1.0, 2.0
        levels = proportional_oscillator_levels(alpha, beta, 4)
        for n in range(4):
            eps_plus, eps_minus = landau_levels_proportional(alpha, beta, k, n)
            for eps in (eps_plus, eps_minus):
                mu = (eps + alpha * k) ** 2 / (1.0 - alpha * alpha)
                assert mu == pytest.approx(levels[n], abs=1e-7)

    def test_error_paths(self):
        with pytest.raises(UnsupportedRegime):
            proportional_oscillator_levels(1.0, 1.0, 3)
        with pytest.raises(ValueError):
            proportional_oscillator_levels(0.5, 0.0, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs(self, bad):
        # a NaN beta failed inside scipy and an infinite one as a grid
        # whose x_max did not exceed x_min
        with pytest.raises(ValueError, match="finite"):
            proportional_oscillator_levels(0.5, bad, 3)
        with pytest.raises(ValueError, match="finite"):
            proportional_oscillator_levels(bad, 1.0, 3)


class TestDiracShooting:
    def test_square_well_zero_set(self):
        roots = shooting_bound_states(
            square_well_config(2.0), 2.0, scan_points=500, tol=1e-9, step=2e-3
        )
        assert len(roots) == 3
        for got, want in zip(roots, WELL22_ROOTS):
            assert got == pytest.approx(want, abs=1e-5)

    def test_determinant_changes_sign_across_root(self):
        config = square_well_config(2.0)
        lo = dirac_shooting(config, QuantumLabel(2.0, WELL22_ROOTS[0] - 0.05))
        hi = dirac_shooting(config, QuantumLabel(2.0, WELL22_ROOTS[0] + 0.05))
        assert lo * hi < 0.0

    def test_batch_equals_scalar(self):
        config = square_well_config(2.0)
        grid = np.linspace(0.1, 1.9, 7)
        batch = dirac_shooting(config, QuantumLabel(2.0, grid))
        for i, eps in enumerate(grid):
            scalar = dirac_shooting(config, QuantumLabel(2.0, float(eps)))
            assert batch[i] == pytest.approx(scalar, rel=1e-12)

    def test_match_point_invariance(self):
        sets = [
            shooting_bound_states(
                square_well_config(2.0), 2.0,
                scan_points=500, tol=1e-9, step=2e-3, x_match=xm,
            )
            for xm in (-0.5, 0.0, 0.7)
        ]
        for other in sets[1:]:
            assert other == pytest.approx(sets[0], abs=1e-8)

    @pytest.mark.parametrize("x_match", [-1.0, 1.0])
    def test_match_point_on_a_step(self, x_match):
        # the segment between the step and the match point has zero width
        base = shooting_bound_states(square_well_config(2.0), 2.0)
        roots = shooting_bound_states(square_well_config(2.0), 2.0, x_match=x_match)
        assert len(base) == len(roots) == 3
        np.testing.assert_allclose(roots, base, rtol=0.0, atol=1e-9)

    def test_match_point_at_a_smooth_window_edge(self):
        # the march from that edge to the match point spans nothing
        config = FieldConfig(electric=Lorentzian(-2.0))
        det = dirac_shooting(config, QuantumLabel(2.0, np.array([-0.5, 0.5, 1.5])), x_match=50.0)
        assert np.all(np.isfinite(det))

    def test_step_refinement_is_converged(self):
        coarse = shooting_bound_states(
            square_well_config(2.0), 2.0, scan_points=500, tol=1e-9, step=4e-3
        )
        fine = shooting_bound_states(
            square_well_config(2.0), 2.0, scan_points=500, tol=1e-9, step=2e-3
        )
        assert coarse == pytest.approx(fine, abs=1e-8)

    def test_zero_field_has_no_bound_states(self):
        config = FieldConfig(electric=square_well(0.0))
        assert shooting_bound_states(config, 2.0, scan_points=200) == []

    def test_zero_momentum_band_is_empty(self):
        assert shooting_bound_states(square_well_config(2.0), 0.0) == []

    def test_smooth_well_spectrum(self):
        # smooth path: Lorentzian well, moderate resolution
        roots = shooting_bound_states(
            FieldConfig(electric=Lorentzian(-2.0)), 2.0,
            scan_points=150, tol=1e-5, step=0.02,
        )
        assert len(roots) == len(LORENTZ_ROOTS)
        for got, want in zip(roots, LORENTZ_ROOTS):
            assert got == pytest.approx(want, abs=1e-3)
        assert all(-2.0 < r < 2.0 for r in roots)

    def test_smooth_shot_builds_its_shooter_once(self, monkeypatch):
        # the benchmark's shot: every scan and secant call shares one shooter,
        # and its roots keep the bits of a scan that builds one per call
        config = FieldConfig(electric=Lorentzian(-2.0))
        reference = oracle._scan_roots(lambda eps: dirac_shooting(config, QuantumLabel(2.0, eps), 0.02),
                                       -2.0, 2.0, 150, 1e-5)
        builds, shooter = [], oracle._shooter
        monkeypatch.setattr(oracle, "_shooter", lambda *args: builds.append(args) or shooter(*args))
        roots = shooting_bound_states(config, 2.0, scan_points=150, tol=1e-5, step=0.02)
        assert len(builds) == 1
        assert roots == reference and len(roots) == len(LORENTZ_ROOTS)

    @pytest.mark.parametrize("step", [0.01, 0.005])
    def test_smooth_level_near_the_band_edge(self, step):
        # a level 2e-7 inside the band edge -1e-5: a 1e-6 margin at the band
        # edges dropped it, though k = 1e-4 found the same level at -0.980 k
        k = 1e-5
        roots = shooting_bound_states(FieldConfig(electric=Lorentzian(-5.0)), k, scan_points=150, tol=1e-8,
                                      step=step)
        assert len(roots) == 1
        assert roots[0] / k == pytest.approx(-0.980, abs=1e-3)

    def test_rejects_non_decaying_energy(self):
        with pytest.raises(OutsideAdmissibleBand):
            dirac_shooting(square_well_config(2.0), QuantumLabel(2.0, 2.5))

    def test_rejects_linear_electric(self):
        with pytest.raises(UnsupportedRegime):
            dirac_shooting(FieldConfig(electric=Linear(1.0)), QuantumLabel(2.0, 0.5))

    def test_rejects_linear_magnetic(self):
        # uniform field has no asymptotically constant window; the grid
        # route covers it instead
        config = FieldConfig(electric=None, magnetic=Linear(1.0))
        with pytest.raises(UnsupportedRegime):
            dirac_shooting(config, QuantumLabel(0.0, 1.0))

    def test_match_point_must_lie_in_window(self):
        with pytest.raises(ValueError):
            dirac_shooting(
                square_well_config(2.0), QuantumLabel(2.0, 0.5), x_match=7.0
            )

    def test_agrees_with_secular_route(self):
        for k, v0 in ((1.5, 3.0), (2.5, 6.0)):
            secular = find_roots(square_well_secular(k, v0))
            shot = shooting_bound_states(
                square_well_config(v0), k, scan_points=500, tol=1e-9, step=2e-3
            )
            assert len(secular) == len(shot)
            for a, b in zip(secular, shot):
                assert abs(a - b) < 1e-5


def _stepwise_rk4_march(march, eps, psi):
    """The smooth-profile march one RK4 step at a time, renormalized every
    256 steps, of every seed in psi (shaped (seeds, energies, 2)): the
    reference the blockwise propagator product must match."""
    if march is None:
        return psi
    h, w, v = march
    n = len(v) // 2

    def apply(wj, dj, vec):
        out = np.empty_like(vec)
        out[:, 0] = wj * vec[:, 0] - dj * vec[:, 1]
        out[:, 1] = dj * vec[:, 0] - wj * vec[:, 1]
        return out

    out = np.empty_like(psi)
    for seed, vec in enumerate(psi):
        for j in range(n):
            w0, wm, w1 = w[2 * j], w[2 * j + 1], w[2 * j + 2]
            d0, dm, d1 = eps - v[2 * j], eps - v[2 * j + 1], eps - v[2 * j + 2]
            k1 = apply(w0, d0, vec)
            k2 = apply(wm, dm, vec + 0.5 * h * k1)
            k3 = apply(wm, dm, vec + 0.5 * h * k2)
            k4 = apply(w1, d1, vec + h * k3)
            vec = vec + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if j % 256 == 255:
                oracle._renormalize(vec)
        oracle._renormalize(vec)
        out[seed] = vec
    return out


# config, k and the half-width of its exterior-decay band
SMOOTH_CASES = {
    "lorentzian": (FieldConfig(electric=Lorentzian(-2.0)), 2.0, 2.0),
    "tanh": (FieldConfig(electric=Tanh(0.5), magnetic=Lorentzian(-2.0)), 2.5, 2.0),
    "coulomb": (FieldConfig(electric=CoulombLike(-1.5, cutoff=0.5)), 1.5, 1.5),
    "magnetic": (FieldConfig(electric=None, magnetic=Lorentzian(-1.5)), 2.0, 2.0),
}


class TestFoldedMarch:
    """The smooth-profile march multiplies each block's RK4 propagators
    pairwise; it must reproduce the step-by-step march."""

    @pytest.mark.parametrize("case", sorted(SMOOTH_CASES))
    def test_determinants_match_the_stepwise_march(self, case, monkeypatch):
        config, k, half_band = SMOOTH_CASES[case]
        # 80 energies in chunks of 16, and each side's 1000 steps in blocks
        # of 512 and 488; all but tanh march the right side as the left's mirror
        grid = np.linspace(-half_band, half_band, 82)[1:-1]
        folded = dirac_shooting(config, QuantumLabel(k, grid), step=0.05)
        monkeypatch.setattr(oracle, "_advance_sampled", _stepwise_rk4_march)
        stepwise = dirac_shooting(config, QuantumLabel(k, grid), step=0.05)
        np.testing.assert_allclose(folded, stepwise, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("case", sorted(SMOOTH_CASES))
    def test_roots_match_the_stepwise_march(self, case, monkeypatch):
        # the secant reads the determinant's values, which the two marches
        # round differently, so the roots agree far inside tol, not bit for bit
        config, k, _ = SMOOTH_CASES[case]
        kwargs = dict(scan_points=40, tol=1e-4, step=0.1)
        folded = shooting_bound_states(config, k, **kwargs)
        assert folded
        monkeypatch.setattr(oracle, "_advance_sampled", _stepwise_rk4_march)
        stepwise = shooting_bound_states(config, k, **kwargs)
        assert len(folded) == len(stepwise)
        np.testing.assert_allclose(folded, stepwise, rtol=0.0, atol=1e-12)

    def test_step_refinement_is_converged(self):
        config = FieldConfig(electric=Lorentzian(-2.0))
        coarse, fine = (
            shooting_bound_states(config, 2.0, scan_points=150, tol=1e-9, step=h)
            for h in (0.02, 0.005)
        )
        assert len(coarse) == len(LORENTZ_ROOTS)
        np.testing.assert_allclose(coarse, fine, rtol=0.0, atol=1e-6)

    def test_memory_stays_per_block(self):
        # 1900 steps a side against 500 energies: one (steps x energies)
        # array of doubles would take 7.6 MB; the blocks peak near 1.2 MB
        config = FieldConfig(electric=Tanh(0.5))
        grid = np.linspace(-1.49, 1.49, 500)
        tracemalloc.start()
        try:
            dirac_shooting(config, QuantumLabel(2.0, grid), step=0.005)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6


# the even cases: the right-hand march samples the left one's fields mirrored
MIRRORED_CASES = ("coulomb", "lorentzian", "magnetic")
# _rk4_propagators calls of the benchmark's Lorentzian shot, marching each
# side on its own: the 150 scan energies in 10 chunks of 16 and 4 secant
# calls, each through 5 blocks of 512 steps a side
TWO_MARCH_BUILDS = 140


def _count_propagators(monkeypatch) -> list:
    calls = []
    build = oracle._rk4_propagators
    monkeypatch.setattr(oracle, "_rk4_propagators", lambda *args: calls.append(1) or build(*args))
    return calls


def _two_march_determinant(config, k, eps, step):
    """The determinant of one march from each window edge to its centre,
    each with its own seed alone."""
    x_lo, x_hi, exteriors, _ = oracle._exteriors(config, k)
    x_match = 0.5 * (x_lo + x_hi)
    sides = []
    for edge, (w, v), outward in zip((x_lo, x_hi), exteriors, (False, True)):
        seed = np.stack(oracle._seed_vectors(w, eps - v, outward=outward), axis=1)
        march = oracle._sample_march(config, k, edge, x_match, step)
        sides.append(oracle._advance_sampled(march, eps, seed[None])[0])
    left, right = sides
    return left[:, 0] * right[:, 1] - left[:, 1] * right[:, 0]


class TestMirroredMarch:
    """An even field's right-hand march reuses the left one's propagators,
    and its determinants and roots keep the bits of two separate marches."""

    @pytest.mark.parametrize("case", MIRRORED_CASES)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_determinants_equal_two_single_seed_marches(self, case, sign, monkeypatch):
        config, k, half_band = SMOOTH_CASES[case]
        k *= sign
        eps = np.linspace(-half_band, half_band, 42)[1:-1]
        calls = _count_propagators(monkeypatch)
        det = dirac_shooting(config, QuantumLabel(k, eps), step=0.05)
        mirrored = len(calls)
        reference = _two_march_determinant(config, k, eps, 0.05)
        assert len(calls) - mirrored == 2 * mirrored
        assert np.array_equal(det, reference)

    def test_the_benchmark_shot_builds_half_the_propagators(self, monkeypatch):
        calls = _count_propagators(monkeypatch)
        roots = shooting_bound_states(FieldConfig(electric=Lorentzian(-2.0)), 2.0, scan_points=150,
                                      tol=1e-5, step=0.02)
        assert len(roots) == len(LORENTZ_ROOTS)
        assert len(calls) == TWO_MARCH_BUILDS // 2

    @pytest.mark.parametrize("config, k, x_match", [
        (SMOOTH_CASES["tanh"][0], SMOOTH_CASES["tanh"][1], None),  # odd electric profile
        (FieldConfig(electric=Lorentzian(-2.0)), 2.0, 0.3),  # off-centre match point
    ])
    def test_unmirrored_fields_march_both_sides(self, config, k, x_match, monkeypatch):
        calls = _count_propagators(monkeypatch)
        shooting_bound_states(config, k, scan_points=150, tol=1e-5, step=0.02, x_match=x_match)
        assert len(calls) == TWO_MARCH_BUILDS


class TestShootingInputs:
    """Every shooting input either works or raises ConfigError."""

    def test_zero_tolerance(self):
        with pytest.raises(ConfigError):
            shooting_bound_states(square_well_config(2.0), 2.0, scan_points=50, tol=0.0)

    def test_tolerance_below_double_spacing_terminates(self):
        kwargs = dict(scan_points=500, step=2e-3)
        config = square_well_config(2.0)
        tiny = shooting_bound_states(config, 2.0, tol=1e-300, **kwargs)
        np.testing.assert_allclose(
            tiny, shooting_bound_states(config, 2.0, tol=1e-9, **kwargs), rtol=0.0, atol=1e-9
        )

    @pytest.mark.parametrize("step", [0.0, float("nan"), -1e-3, float("inf")])
    def test_step_must_be_finite_and_positive(self, step):
        with pytest.raises(ConfigError):
            shooting_bound_states(square_well_config(2.0), 2.0, scan_points=50, step=step)
        with pytest.raises(ConfigError):
            dirac_shooting(square_well_config(2.0), QuantumLabel(2.0, 0.5), step=step)

    def test_one_scan_point(self):
        with pytest.raises(ConfigError):
            shooting_bound_states(square_well_config(2.0), 2.0, scan_points=1)

    @pytest.mark.parametrize("scan_points", [2.5, 300.0, "300", None])
    def test_scan_points_must_be_an_integer(self, scan_points):
        with pytest.raises(ConfigError, match="integer"):
            shooting_bound_states(square_well_config(2.0), 2.0, scan_points=scan_points)

    def test_numpy_integer_scan_points(self):
        config = square_well_config(2.0)
        assert shooting_bound_states(config, 2.0, scan_points=np.int64(50)) == shooting_bound_states(
            config, 2.0, scan_points=50)

    @pytest.mark.parametrize("step", [1e-9, 5e-324])
    def test_smooth_step_whose_samples_exceed_the_cap_is_refused_before_any_allocation(self, step):
        # 1e-9 over the Lorentzian's half-window of 50 asked numpy for 1e11
        # samples per array; 5e-324 made the step count infinite
        config = FieldConfig(electric=Lorentzian(-2.0))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="field samples"):
                dirac_shooting(config, QuantumLabel(2.0, 0.5), step=step)
            with pytest.raises(ConfigError, match="field samples"):
                shooting_bound_states(config, 2.0, scan_points=150, step=step)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("step", [5e-324, 1e-320])
    def test_stepwise_step_whose_count_overflows_is_refused(self, step):
        # the square well's unit segments took math.ceil(inf): OverflowError
        config = square_well_config(2.0)
        with pytest.raises(ConfigError, match="overflow a double"):
            dirac_shooting(config, QuantumLabel(2.0, 0.5), step=step)
        with pytest.raises(ConfigError, match="overflow a double"):
            shooting_bound_states(config, 2.0, step=step)

    def test_a_tiny_finite_stepwise_step_still_solves(self):
        # each segment's power is taken in closed form, so 1e300 steps cost
        # no more than one
        config = square_well_config(2.0)
        assert np.isfinite(dirac_shooting(config, QuantumLabel(2.0, 0.5), step=1e-300))
        roots = shooting_bound_states(config, 2.0, step=1e-300)
        np.testing.assert_allclose(roots, find_roots(square_well_secular(2.0, 2.0)), rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("k, eps", [(2.0, float("nan")), (float("nan"), 0.5)])
    def test_non_finite_label(self, k, eps):
        with pytest.raises(ConfigError):
            dirac_shooting(square_well_config(2.0), QuantumLabel(k, np.array([0.3, eps])))

    @pytest.mark.parametrize("electric, magnetic, k", [
        (square_well(2.0), None, 1e-200), (square_well(2.0), None, -5e-324), (Lorentzian(-2.0), None, 1e-300),
        (square_well(2.0), PiecewiseConstant((-0.5, 0.5), (1e-200, 0.0, 0.0)), 0.0),  # the left k + a only
    ])
    def test_exterior_momentum_whose_square_underflows_is_refused(self, electric, magnetic, k, monkeypatch):
        # the seeds had norm 0: a divide-by-zero warning, then a refusal
        # that asked for a smaller step; 1e-160 still squares and shoots
        assert len(shooting_bound_states(square_well_config(2.0), 1e-160)) == 1
        monkeypatch.setattr(oracle, "_shooter", None)
        monkeypatch.setattr(oracle, "_scan_roots", None)
        with pytest.raises(UnsupportedRegime, match="underflows when squared"):
            shooting_bound_states(FieldConfig(electric, magnetic), k)

    @pytest.mark.parametrize("strength", [-1e300, -1e9], ids=["field", "step-times-field"])
    def test_a_field_that_can_overflow_the_propagators_is_refused_before_any_is_built(self, strength, monkeypatch):
        # Lorentzian(-1e300) is finite, yet dm * dm overflowed in _rk4_propagators;
        # the benchmark's Lorentzian well keeps its roots
        roots = shooting_bound_states(FieldConfig(electric=Lorentzian(-2.0)), 2.0, scan_points=150, tol=1e-5,
                                      step=0.02)
        np.testing.assert_allclose(roots, LORENTZ_ROOTS, rtol=0.0, atol=1e-3)
        monkeypatch.setattr(oracle, "_rk4_propagators", None)
        config = FieldConfig(electric=Lorentzian(strength))
        with pytest.raises(UnsupportedRegime, match="overflow the RK4 propagators"):
            shooting_bound_states(config, 2.0)
        with pytest.raises(UnsupportedRegime, match="overflow the RK4 propagators"):
            dirac_shooting(config, QuantumLabel(2.0, 0.5))


def _matmul_stepwise_march(segments, eps, psi, powers):
    """The stepwise march with each segment's RK4 step built as an
    (energies, 2, 2) matrix and powered by matrix squaring: the reference
    the closed-form powers must match.  powers is ignored, and the angle
    returned is 0: the reference carries none."""
    psi = np.stack(psi, axis=1)
    n_eps = psi.shape[0]
    eye = np.zeros((n_eps, 2, 2))
    eye[:, 0, 0] = 1.0
    eye[:, 1, 1] = 1.0
    for h, n, w, v in segments:
        delta = eps - v
        A = np.empty((n_eps, 2, 2))
        A[:, 0, 0] = h * w
        A[:, 0, 1] = -h * delta
        A[:, 1, 0] = h * delta
        A[:, 1, 1] = -h * w
        A2 = A @ A
        A3 = A2 @ A
        R = eye + A + A2 / 2.0 + A3 / 6.0 + (A3 @ A) / 24.0
        acc = eye.copy()
        m = n
        while m:
            if m & 1:
                acc = R @ acc
            R = R @ R
            m >>= 1
        psi = (acc @ psi[:, :, None])[:, :, 0]
        oracle._renormalize(psi)
    return (psi[:, 0], psi[:, 1]), np.zeros(n_eps)


# config, k, step, x_match and the exterior-decay band of the stepwise cases
STEPWISE_CASES = {
    "well-2-2-1": (square_well_config(2.0), 2.0, 1e-3, None, (-2.0, 2.0)),
    "well-50-120-3": (square_well_config(120.0, 3.0), 50.0, 0.02 / math.sqrt(170.0**2 - 50.0**2),
                      None, (-50.0, 50.0)),
    "three-steps": (FieldConfig(electric=PiecewiseConstant((-1.0, 0.3, 1.2), (0.0, -4.0, -2.5, 0.5))),
                    2.0, 1e-3, None, (-1.5, 2.0)),
    "magnetic-step": (FieldConfig(electric=square_well(6.0),
                                  magnetic=PiecewiseConstant((-0.5, 0.4), (0.0, 0.7, -0.3))),
                      2.5, 1e-3, None, (-2.2, 2.2)),
    "off-centre-match": (square_well_config(8.0), 3.0, 1e-3, 0.37, (-3.0, 3.0)),
}


class TestStepwisePower:
    """Square and piecewise wells power each segment's RK4 step as
    u I + v M; the result must match the matrix powering it replaced."""

    @pytest.mark.parametrize("case", list(STEPWISE_CASES))
    def test_determinants_match_the_matmul_powering(self, case, monkeypatch):
        config, k, step, x_match, (lo, hi) = STEPWISE_CASES[case]
        grid = np.linspace(lo, hi, 403)[1:-1]
        powered = dirac_shooting(config, QuantumLabel(k, grid), step, x_match)
        monkeypatch.setattr(oracle, "_advance_stepwise", _matmul_stepwise_march)
        reference = dirac_shooting(config, QuantumLabel(k, grid), step, x_match)
        np.testing.assert_array_equal(np.sign(powered), np.sign(reference))
        np.testing.assert_allclose(powered, reference, rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("case", list(STEPWISE_CASES))
    def test_roots_match_the_matmul_powering(self, case, monkeypatch):
        # the phase's crossings, solved to tol, are sign changes of the
        # matrix-powered determinant within 2 tol, one between each pair of
        # neighbouring roots
        config, k, step, x_match, _ = STEPWISE_CASES[case]
        tol = 1e-10
        roots = np.array(shooting_bound_states(config, k, tol=tol, step=step, x_match=x_match))
        assert roots.size
        monkeypatch.setattr(oracle, "_advance_stepwise", _matmul_stepwise_march)
        det = lambda eps: dirac_shooting(config, QuantumLabel(k, eps), step, x_match)
        assert np.all(det(roots - 2.0 * tol) * det(roots + 2.0 * tol) < 0.0)
        between = det(0.5 * (roots[:-1] + roots[1:]))
        assert np.all(between[:-1] * between[1:] < 0.0)

    def test_mirror_segments_give_equal_u_and_opposite_v(self):
        # s of both signs: oscillatory and evanescent energies
        s = np.linspace(-900.0, 400.0, 257)
        for h, n in ((1e-3, 1000), (2.7e-4, 7411), (0.05, 1)):
            u, v, turns = oracle._rk4_power(s, h, n)
            u_mirror, v_mirror, turns_mirror = oracle._rk4_power(s, -h, n)
            np.testing.assert_array_equal(u_mirror, u)
            np.testing.assert_array_equal(v_mirror, -v)
            np.testing.assert_array_equal(turns_mirror, turns)

    @pytest.mark.parametrize("h, n", [(1e-3, 1000), (-2.7e-4, 7411), (0.2, 5)])
    def test_power_alone_and_in_a_mixed_batch(self, h, n):
        # a batch with every s < 0 skips the decay branch; each s alone
        # gives the bits it gives in a batch of
        # oscillatory, decaying, s = 0 and too coarse (at h = 0.2) elements
        s = np.array([-900.0, -4.0, -1e-300, 0.0, 1e-300, 4.0, 400.0, 4.0 - 21.9**2])
        batch = oracle._rk4_power(s, h, n)
        for i in range(s.size):
            alone = oracle._rk4_power(s[i : i + 1], h, n)
            assert [a.tobytes() for a in alone] == [b[i : i + 1].tobytes() for b in batch]

    def test_wide_barrier_double_well(self):
        # two wells 40 apart: at k = 40 the barrier between them damps by
        # about e^-1600, which overflowed the unnormalized matrix powers
        config = FieldConfig(electric=PiecewiseConstant((-22.0, -20.0, 20.0, 22.0),
                                                        (0.0, -60.0, 0.0, -47.0, 0.0)))
        grid = np.linspace(-40.0, 40.0, 402)[1:-1]
        assert np.all(np.isfinite(dirac_shooting(config, QuantumLabel(40.0, grid), step=2e-4)))
        transfer = find_roots(general_secular(config, 40.0))
        assert len(transfer) == 109
        shot = shooting_bound_states(config, 40.0, step=2e-4)
        assert len(shot) == len(transfer)
        np.testing.assert_allclose(shot, transfer, rtol=0.0, atol=1e-5)


def shooting_step(config, k):
    """min(1e-3, 0.02 / q_max), q_max the largest interior wavenumber over
    the band: the shooting oracle's RK4 error grows as (q h)^4."""
    values = [profile.values if isinstance(profile, PiecewiseConstant) else (0.0,)
              for profile in (config.electric, config.magnetic)]
    v, a = values[0], values[1]
    lo = max(v[0] - abs(k + a[0]), v[-1] - abs(k + a[-1]))
    hi = min(v[0] + abs(k + a[0]), v[-1] + abs(k + a[-1]))
    q_max = max(math.sqrt(max((e - vi) ** 2 - (k + ai) ** 2, 0.0)) for e in (lo, hi) for vi in v for ai in a)
    return min(1e-3, 0.02 / q_max) if q_max > 0.0 else 1e-3, lo, hi


@st.composite
def stepwise_wells(draw):
    """(config, k, x_match): square wells and barriers with signed k, deep
    and wide, or asymmetric piecewise wells with wide barriers."""
    if draw(st.booleans()):
        k = draw(st.floats(-40.0, 40.0).filter(lambda k: abs(k) > 0.05))
        v0 = draw(st.floats(1e-3, 300.0)) * draw(st.sampled_from([1.0, -1.0]))
        return square_well_config(v0, draw(st.floats(0.1, 6.0))), k, None
    steps, values, k = draw(piecewise_wells())
    return FieldConfig(electric=PiecewiseConstant(steps, values)), k, None


MAGNETIC_STEP = FieldConfig(electric=square_well(6.0), magnetic=PiecewiseConstant((-0.5, 0.4), (0.0, 0.7, -0.3)))


class TestShootingPhase:
    """Stepwise profiles are shot by counting the windings of the RK4
    march: every level is found, however near a band edge."""

    @settings(max_examples=40, deadline=None)
    @given(well=stepwise_wells())
    @example(well=(FieldConfig(electric=PiecewiseConstant((-1.0, 0.3, 1.2), (0.0, -4.0, -2.5, 0.5))), 2.0,
                   None))  # TestCarry's
    @example(well=(FieldConfig(electric=PiecewiseConstant((-2.0, -0.5, 0.5, 2.0), (0.0, -5.0, 0.0, -5.0, 0.0))),
                   2.0, None))  # TestEvanescentBarrier's
    @example(well=(FieldConfig(electric=PiecewiseConstant((-22.0, -20.0, 20.0, 22.0),
                                                          (0.0, -60.0, 0.0, -47.0, 0.0))), 40.0, None))  # 109 levels
    @example(well=(MAGNETIC_STEP, 2.5, None))
    @example(well=(square_well_config(8.0), 3.0, 0.37))
    @example(well=(FieldConfig(electric=PiecewiseConstant((-1.0, 2.0), (3.0, 3.0, 3.0))), 3.0,
                   None))  # flat, with its lower band edge at zero
    def test_roots_match_the_transfer_route(self, well):
        config, k, x_match = well
        step, lo, hi = shooting_step(config, k)
        if config.magnetic is None:
            try:
                reference = find_roots(general_secular(config, k))
            except UnsupportedRegime:  # a level within a double of the band edge
                reject()
        else:
            # no transfer route for a vector potential: the determinant's
            # sign changes at half the step, scanned and bisected
            det = lambda eps: dirac_shooting(config, QuantumLabel(k, eps), 0.5 * step, x_match)
            reference = oracle._scan_roots(det, lo, hi, 4000, 1e-12)
        shot = shooting_bound_states(config, k, step=step, x_match=x_match)
        assert len(shot) == len(reference)
        np.testing.assert_allclose(shot, reference, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("k", [3.0, -3.0])
    def test_no_level_at_a_band_edge_on_zero(self, k):
        # a flat profile at v = |k| has its band edge on eps = 0 (v = -|k|
        # on the upper edge), where the innermost doubles round eps - v to
        # a critical exterior: its phase is the edge's n pi, and rounded
        # below it, it was a level at 2.25e-11
        v = abs(k) if k > 0.0 else -abs(k)
        config = FieldConfig(electric=PiecewiseConstant((-1.0, 2.0), (v, v, v)))
        assert shooting_bound_states(config, k) == []
        lo, hi = oracle._decaying_band(min(0.0, 2.0 * v), max(0.0, 2.0 * v), ((k, v), (k, v)))
        for eps in (np.nextafter(lo, hi), np.nextafter(hi, lo)):
            dirac_shooting(config, QuantumLabel(k, eps))  # both exteriors decay: no OutsideAdmissibleBand
        with pytest.raises(OutsideAdmissibleBand):
            dirac_shooting(config, QuantumLabel(k, lo if v > 0.0 else hi))

    def test_the_decaying_band_keeps_an_edge_whose_doubles_decay(self):
        assert oracle._decaying_band(-2.0, 2.0, ((2.0, 0.0), (2.0, 0.0))) == (-2.0, 2.0)
        assert oracle._decaying_band(1.0, 1.0, ((0.0, 1.0), (0.0, 1.0))) == (1.0, 1.0)

    @pytest.mark.parametrize("k, v0, half_width, count", [(50.0, 20.0, 3.0, 94), (2.0, 1e-4, 1.0, 1)])
    def test_levels_at_the_band_edge(self, k, v0, half_width, count):
        # the scan lost 4 top levels of (50, 20, 3) and the one level of
        # (2, 1e-4, 1), 4e-8 below the band edge; verify's step
        step = min(2e-3, 0.02 / math.sqrt((abs(k) + v0) ** 2 - k * k))
        shot = shooting_bound_states(square_well_config(v0, half_width), k, tol=1e-9, step=step)
        closed = find_roots(square_well_secular(k, v0, half_width))
        assert len(shot) == len(closed) == count
        np.testing.assert_allclose(shot, closed, rtol=0.0, atol=1e-6)

    def test_bisection_after_the_secant_calls(self, monkeypatch):
        # every point after the first call a midpoint: the same levels,
        # each within tol
        config, tol = square_well_config(8.0), 1e-10
        secant = shooting_bound_states(config, 3.0, tol=tol)
        monkeypatch.setattr(oracle, "SECANT_CALLS", 0)
        halved = shooting_bound_states(config, 3.0, tol=tol)
        assert len(halved) == len(secant) == 5
        np.testing.assert_allclose(halved, secant, rtol=0.0, atol=tol)

    def test_coarse_step_is_refused(self):
        # q h reaches 4.4 at the band's upper edge: the one-step v is
        # negative there, and the winding count would be wrong; the
        # determinant is refused alike, and an empty band checks no step
        with pytest.raises(UnsupportedRegime, match="too coarse"):
            shooting_bound_states(square_well_config(20.0), 2.0, step=0.2)
        with pytest.raises(UnsupportedRegime, match="too coarse"):
            dirac_shooting(square_well_config(20.0), QuantumLabel(2.0, np.linspace(-1.9, 1.9, 5)), step=0.2)
        assert shooting_bound_states(square_well_config(20.0), 0.0, step=0.2) == []

    @pytest.mark.parametrize("step", [0.2, 0.1])
    def test_coarse_smooth_step_is_refused(self, step):
        # y = h^2 (4 - 22^2) at the Lorentzian's floor: a one-step u or v is
        # not positive, and h = 0.1 returned 18 of the 19 levels
        with pytest.raises(UnsupportedRegime, match="too coarse"):
            shooting_bound_states(FieldConfig(electric=Lorentzian(-20.0)), 2.0, scan_points=300, tol=1e-8,
                                  step=step)

    def test_fine_smooth_step_counts_every_level(self):
        roots = shooting_bound_states(FieldConfig(electric=Lorentzian(-20.0)), 2.0, scan_points=300, tol=1e-8,
                                      step=0.01)
        assert len(roots) == 19


def test_oracle_imports_only_core_and_errors_from_the_package():
    # the oracles' agreement with the matching routes is evidence only while
    # they share no code with them
    tree = ast.parse(Path(oracle.__file__).read_text())
    relative = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    absolute = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    absolute |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level}
    assert relative == {"core", "errors"}
    assert not any(name.split(".")[0] == "diracwell" for name in absolute)


def test_no_module_of_the_package_imports_scipy():
    # the grid oracle diagonalizes with numpy; scipy.linalg alone cost more
    # import time than the rest of a command
    src = Path(oracle.__file__).parents[1]
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
        assert not any(name.split(".")[0] == "scipy" for name in names), path.name
