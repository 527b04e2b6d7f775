"""Independent numerical routes: grid diagonalization of the reduced
second-order problem and two-sided shooting on the first-order system.
These share no algebra with the matching construction they check."""

import math
import tracemalloc

import numpy as np
import pytest

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

WELL22_ROOTS = (0.35427361798250695, 1.1335605119300567, 1.9258300731147544)
# shooting zero set of the Lorentzian well, strength -2, k = 2, step 0.01
LORENTZ_ROOTS = (0.567247, 1.304795, 1.696057, 1.881440, 1.957666)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 1.0, 100)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 100, boundary="periodic")

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
        config, k, _ = SMOOTH_CASES[case]
        kwargs = dict(scan_points=40, tol=1e-4, step=0.1)
        folded = shooting_bound_states(config, k, **kwargs)
        assert folded
        monkeypatch.setattr(oracle, "_advance_sampled", _stepwise_rk4_march)
        assert folded == shooting_bound_states(config, k, **kwargs)

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

    @pytest.mark.parametrize("k, eps", [(2.0, float("nan")), (float("nan"), 0.5)])
    def test_non_finite_label(self, k, eps):
        with pytest.raises(ConfigError):
            dirac_shooting(square_well_config(2.0), QuantumLabel(k, np.array([0.3, eps])))

    @pytest.mark.parametrize("edge_margin", [float("nan"), -1e-6, float("inf")])
    def test_edge_margin_must_be_finite_and_non_negative(self, edge_margin):
        with pytest.raises(ConfigError):
            shooting_bound_states(
                square_well_config(2.0), 2.0, scan_points=500, edge_margin=edge_margin
            )


def _matmul_stepwise_march(config, k, eps, psi, points, step, powers):
    """The square-well march with each segment's RK4 step built as an
    (energies, 2, 2) matrix and powered by matrix squaring: the reference
    the two-coefficient powering must match.  powers is ignored."""
    n_eps = psi.shape[0]
    eye = np.zeros((n_eps, 2, 2))
    eye[:, 0, 0] = 1.0
    eye[:, 1, 1] = 1.0
    for a, b in zip(points[:-1], points[1:]):
        width = b - a
        if width == 0.0:
            continue
        n = max(1, math.ceil(abs(width) / step))
        h = width / n
        mid = 0.5 * (a + b)
        v = evaluate_potential(config.electric, mid) if config.electric is not None else 0.0
        ay = evaluate_potential(config.magnetic, mid) if config.magnetic is not None else 0.0
        w = k + ay
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
    return psi


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
        config, k, step, x_match, _ = STEPWISE_CASES[case]
        tol = 1e-10
        powered = shooting_bound_states(config, k, tol=tol, step=step, x_match=x_match)
        assert powered
        monkeypatch.setattr(oracle, "_advance_stepwise", _matmul_stepwise_march)
        reference = shooting_bound_states(config, k, tol=tol, step=step, x_match=x_match)
        assert len(powered) == len(reference)
        np.testing.assert_allclose(powered, reference, rtol=0.0, atol=2.0 * tol)

    def test_mirror_segments_give_equal_u_and_opposite_v(self):
        # s of both signs: oscillatory and evanescent energies
        s = np.linspace(-900.0, 400.0, 257)
        for h, n in ((1e-3, 1000), (2.7e-4, 7411), (0.05, 1)):
            u, v = oracle._rk4_power(s, h, n)
            u_mirror, v_mirror = oracle._rk4_power(s, -h, n)
            np.testing.assert_array_equal(u_mirror, u)
            np.testing.assert_array_equal(v_mirror, -v)

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
