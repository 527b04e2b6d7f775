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
    partner_potentials,
    proportional_oscillator_levels,
    shooting_bound_states,
    square_well,
    square_well_config,
    square_well_secular,
)
from diracwell import oracle
from diracwell.core import evaluate_potential
from diracwell.errors import ConfigError, GridTooCoarse, NonDecayingExterior, UnsupportedRegime
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
        assert spec.refined().points == 21

    def test_spacing_and_refinement(self):
        spec = GridSpec(0.0, 1.0, 11)
        assert spec.spacing == pytest.approx(0.1)
        fine = spec.refined()
        assert fine.points == 21
        assert fine.spacing == pytest.approx(0.05)


class TestGridEigenvalues:
    def test_particle_in_a_box(self):
        spec = GridSpec(0.0, math.pi, 4001)
        vals = grid_eigenvalues(lambda x: 0.0 * x, spec, 3)
        assert vals == pytest.approx([1.0, 4.0, 9.0], abs=1e-4)

    def test_shifted_oscillator(self):
        # u = x^2 - 1 has exact levels 0, 2, 4, ...
        spec = GridSpec(-12.0, 12.0, 4001)
        vals = grid_eigenvalues(lambda x: x * x - 1.0, spec, 3)
        assert vals == pytest.approx([0.0, 2.0, 4.0], abs=1e-4)

    def test_convergence_control(self):
        spec = GridSpec(-12.0, 12.0, 41)
        with pytest.raises(GridTooCoarse):
            grid_eigenvalues(lambda x: x * x - 1.0, spec, 3, tol=1e-6)

    def test_tol_path_returns_refined_values(self):
        spec = GridSpec(-12.0, 12.0, 2001)
        checked = grid_eigenvalues(lambda x: x * x - 1.0, spec, 2, tol=1.0)
        refined = grid_eigenvalues(lambda x: x * x - 1.0, spec.refined(), 2)
        np.testing.assert_allclose(checked, refined, atol=0.0)


class TestFactorizationPartners:
    def test_partner_spectra_are_degenerate_above_ground(self):
        # w = x: partners x^2 - 1 and x^2 + 1 with spectra {0,2,4,...} and
        # {2,4,6,...}; the upper partner reproduces the base spectrum from
        # its first level shifted by one index
        minus, plus = partner_potentials(lambda x: x, lambda x: np.ones_like(x))
        spec = GridSpec(-12.0, 12.0, 8001)
        base = grid_eigenvalues(minus, spec, 4)
        mate = grid_eigenvalues(plus, spec, 3)
        assert base == pytest.approx([0.0, 2.0, 4.0, 6.0], abs=1e-4)
        np.testing.assert_allclose(mate, base[1:], atol=1e-4)


class TestProportionalOscillator:
    def test_levels_match_closed_form(self):
        b = 1.0 * math.sqrt(1.0 - 0.25)
        levels = proportional_oscillator_levels(0.5, 1.0, 3)
        assert levels == pytest.approx([0.0, 2.0 * b, 4.0 * b], abs=1e-8)

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

    def test_richardson_tightens_the_levels(self):
        plain = proportional_oscillator_levels(0.3, 1.0, 3, points=1501, richardson=False)
        extrap = proportional_oscillator_levels(0.3, 1.0, 3, points=1501, richardson=True)
        b = math.sqrt(1.0 - 0.09)
        exact = np.array([0.0, 2.0 * b, 4.0 * b])
        assert np.max(np.abs(extrap - exact)) < np.max(np.abs(plain - exact))

    def test_error_paths(self):
        with pytest.raises(UnsupportedRegime):
            proportional_oscillator_levels(1.0, 1.0, 3)
        with pytest.raises(ValueError):
            proportional_oscillator_levels(0.5, 0.0, 3)

    def test_non_integer_points(self):
        with pytest.raises(ValueError, match="integer"):
            proportional_oscillator_levels(0.5, 1.0, 3, points=1001.5)

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
        with pytest.raises(NonDecayingExterior):
            dirac_shooting(square_well_config(2.0), QuantumLabel(2.0, 2.5))

    def test_rejects_linear_electric(self):
        with pytest.raises(NonDecayingExterior):
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


def _stepwise_rk4_march(config, k, eps, psi, x_from, x_to, step):
    """The smooth-profile march one RK4 step at a time, renormalized every
    256 steps: the reference the blockwise propagator product must match."""
    span = x_to - x_from
    if span == 0.0:
        return psi
    n = max(1, math.ceil(abs(span) / step))
    h = span / n
    xs = x_from + 0.5 * h * np.arange(2 * n + 1)
    v = (
        np.asarray(evaluate_potential(config.electric, xs), dtype=float)
        if config.electric is not None
        else np.zeros(len(xs))
    )
    ay = (
        np.asarray(evaluate_potential(config.magnetic, xs), dtype=float)
        if config.magnetic is not None
        else np.zeros(len(xs))
    )
    w = k + ay

    def apply(wj, dj, vec):
        out = np.empty_like(vec)
        out[:, 0] = wj * vec[:, 0] - dj * vec[:, 1]
        out[:, 1] = dj * vec[:, 0] - wj * vec[:, 1]
        return out

    for j in range(n):
        w0, wm, w1 = w[2 * j], w[2 * j + 1], w[2 * j + 2]
        d0, dm, d1 = eps - v[2 * j], eps - v[2 * j + 1], eps - v[2 * j + 2]
        k1 = apply(w0, d0, psi)
        k2 = apply(wm, dm, psi + 0.5 * h * k1)
        k3 = apply(wm, dm, psi + 0.5 * h * k2)
        k4 = apply(w1, d1, psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if j % 256 == 255:
            oracle._renormalize(psi)
    oracle._renormalize(psi)
    return psi


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
        # 80 energies split each side's march into blocks of 102 steps
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

    @pytest.mark.parametrize("k, eps", [(2.0, float("nan")), (float("nan"), 0.5)])
    def test_non_finite_label(self, k, eps):
        with pytest.raises(ConfigError):
            dirac_shooting(square_well_config(2.0), QuantumLabel(k, np.array([0.3, eps])))


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
        # a batch with every s < 0 and a fine step skips the decay branch and
        # the NaN mask; each s alone gives the bits it gives in a batch of
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
        # negative there, and the winding count would be wrong
        with pytest.raises(UnsupportedRegime, match="too coarse"):
            shooting_bound_states(square_well_config(20.0), 2.0, step=0.2)
        u, v, turns = oracle._rk4_power(np.array([4.0 - 21.9**2]), 0.2, 5)
        assert np.isnan(turns).all()


def test_oracle_imports_only_core_and_errors_from_the_package():
    # the oracles' agreement with the matching routes is evidence only while
    # they share no code with them
    tree = ast.parse(Path(oracle.__file__).read_text())
    relative = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    absolute = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    absolute |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level}
    assert relative == {"core", "errors"}
    assert not any(name.split(".")[0] == "diracwell" for name in absolute)
