"""Assembled bound states: conjugate structure, phase fixing, densities,
orthonormality, reflection symmetry, and equation residuals."""

import cmath
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracwell import (
    FieldConfig,
    PiecewiseConstant,
    PiecewiseExp,
    QuantumLabel,
    assemble_square_well_state,
    count_density_nodes,
    current_density,
    equation_residuals,
    find_roots,
    fix_phase,
    general_secular,
    gram_matrix,
    inner_product,
    partner_component,
    probability_density,
    product_integral,
    pt_eigenvalue,
    second_order_residuals,
    square_well,
    square_well_secular,
    state_to_csv,
    state_to_json,
    to_real_spinor,
    with_phase,
)
from diracwell import states as states_module
from diracwell.errors import (
    BrokenPTSymmetry,
    ConfigError,
    DegenerateMomentum,
    MismatchedMomentum,
    NonDecayingExterior,
    NotAnEigenvalue,
    NotConjugatePair,
    OutsideAdmissibleBand,
    UnsupportedRegime,
)
from diracwell.matching import _carry
from diracwell.oracle import shooting_bound_states
from diracwell.states import _carried_wave


@pytest.fixture(scope="module")
def well22_states():
    roots = find_roots(square_well_secular(2.0, 2.0))
    return [
        assemble_square_well_state(QuantumLabel(k=2.0, epsilon=e), 2.0) for e in roots
    ]


class TestPiecewiseExp:
    # exp(x) left of the step at 0 and exp(-x) right of it
    CUSP = PiecewiseExp((0.0,), g=(1.0, 1.0), a=(1.0, 0.0), b=(0.0, 1.0))

    def test_evaluation_and_derivative(self):
        f = self.CUSP
        assert f(0.0) == pytest.approx(1.0)
        assert f(-2.0) == pytest.approx(math.exp(-2.0))
        assert f.derivative()(1.0) == pytest.approx(-math.exp(-1.0))

    def test_product_integral_exact(self):
        # integral of exp(-2|x|) over the line is exactly 1
        assert product_integral(self.CUSP, self.CUSP) == pytest.approx(1.0, abs=1e-15)

    def test_product_integral_needs_shared_steps(self):
        shifted = PiecewiseExp((1.0,), g=(1.0, 1.0), a=(1.0, 0.0), b=(0.0, 1.0))
        with pytest.raises(UnsupportedRegime):
            product_integral(self.CUSP, shifted)

    def test_divergent_integral_raises(self):
        # an exterior term that grows outward would make every integral diverge
        with pytest.raises(NonDecayingExterior):
            PiecewiseExp((0.0,), g=(0.5, 0.5), a=(1.0, 1.0), b=(0.0, 0.0))
        with pytest.raises(NonDecayingExterior):
            PiecewiseExp((0.0,), g=(-0.5, 0.5), a=(1.0, 0.0), b=(0.0, 1.0))

    def test_conjugate_and_scale(self):
        # i exp((-1 + 2i) x) right of the step, zero left of it
        f = PiecewiseExp((0.0,), g=(1.0, 1.0 - 2j), a=(0.0, 0.0), b=(0.0, 1j))
        assert f.conjugate()(1.0) == pytest.approx(np.conj(f(1.0)))
        assert f.scaled(2j)(1.0) == pytest.approx(2j * f(1.0))


class TestAssembly:
    def test_rotated_components_are_conjugate(self, well22_states):
        for s in well22_states:
            assert np.max(np.abs(s.psi2 - np.conj(s.psi1))) < 1e-10

    def test_norm_is_exactly_one(self, well22_states):
        for s in well22_states:
            assert s.norm == pytest.approx(1.0, abs=1e-12)

    def test_grid_is_symmetric_and_odd(self, well22_states):
        for s in well22_states:
            assert len(s.x) % 2 == 1
            np.testing.assert_allclose(s.x, -s.x[::-1], atol=0.0)

    def test_tail_is_negligible_at_grid_ends(self, well22_states):
        for s in well22_states:
            assert abs(s.psi1[0]) < 1e-4 * np.max(np.abs(s.psi1))

    def test_rejects_non_eigenvalue(self):
        with pytest.raises(NotAnEigenvalue):
            assemble_square_well_state(QuantumLabel(k=2.0, epsilon=1.0), 2.0)

    def test_partner_needs_momentum(self):
        wave = PiecewiseExp((-1.0, 1.0), g=(1.0, 1j, 1.0), a=(1.0, 0.5, 0.0), b=(0.0, 0.5, 1.0))
        with pytest.raises(DegenerateMomentum):
            partner_component(wave, QuantumLabel(k=0.0, epsilon=0.5), square_well(2.0))

    def test_requested_point_count_is_honored(self):
        eps = find_roots(square_well_secular(2.0, 2.0))[0]
        s = assemble_square_well_state(QuantumLabel(k=2.0, epsilon=eps), 2.0, points=801)
        assert len(s.x) == 801

    def test_too_few_points_are_rejected(self):
        label = QuantumLabel(k=2.0, epsilon=find_roots(square_well_secular(2.0, 2.0))[0])
        for points in (2, 0, -5):
            with pytest.raises(ConfigError, match="at least 3 points"):
                assemble_square_well_state(label, 2.0, points=points)
        # an even count is rounded up to the next odd one
        assert len(assemble_square_well_state(label, 2.0, points=4).x) == 5


def assert_family_is_clean(states):
    """The bounds `verify` applies: conjugate components, PT eigenvalue
    +/-i and an orthonormal family."""
    conj = max(float(np.max(np.abs(s.psi2 - np.conj(s.psi1)))) for s in states)
    pt = max(min(abs(pt_eigenvalue(s) - 1j), abs(pt_eigenvalue(s) + 1j)) for s in states)
    gram = np.array([[inner_product(a, b) for b in states] for a in states])
    assert conj < 1e-10
    assert pt < 1e-8
    assert np.max(np.abs(gram - np.eye(len(states)))) < 1e-8


def assemble_all(k, v0, half_width, points=401):
    roots = find_roots(square_well_secular(k, v0, half_width))
    return [
        assemble_square_well_state(QuantumLabel(k=k, epsilon=e), v0, half_width, points)
        for e in roots
    ]


def side_limits(terms, x):
    """(value, slope) at x of a sum of c exp(g x) terms."""
    parts = [(c * cmath.exp(g * x), g) for c, g in terms]
    return sum(v for v, _ in parts), sum(g * v for v, g in parts)


def check_steps(profile, g, a, b, tol):
    """Assert that the wave with region coefficients (g, a, b), each region
    anchored at its left step, is continuous at every step of profile and
    that its slope jumps there by i J psi, relative to |psi| + |psi'|."""
    steps, values = profile.breakpoints, profile.values
    anchors = (steps[0], *steps)
    terms = [[(ai * cmath.exp(-gi * x0), gi), (bi * cmath.exp(gi * x0), -gi)]
             for x0, gi, ai, bi in zip(anchors, g, a, b)]
    for j, xb in enumerate(steps):
        psi_l, dpsi_l = side_limits(terms[j], xb)
        psi_r, dpsi_r = side_limits(terms[j + 1], xb)
        scale = abs(psi_l) + abs(dpsi_l)
        assert abs(psi_r - psi_l) < tol * scale
        jump = 1j * (values[j + 1] - values[j]) * psi_l
        assert abs(dpsi_r - dpsi_l - jump) < tol * scale


class TestCarry:
    # three steps, no symmetry: neither PT nor the closed form applies
    PROFILE = PiecewiseConstant((-1.0, 0.3, 1.2), (0.0, -4.0, -2.5, 0.5))
    K = 2.0

    @pytest.fixture(scope="class")
    def label(self):
        roots = find_roots(general_secular(FieldConfig(electric=self.PROFILE), self.K))
        assert len(roots) >= 2
        return QuantumLabel(self.K, roots[1])

    @pytest.mark.parametrize("direction", [1, -1])
    def test_each_carry_is_continuous_and_jumps_by_i_j_psi(self, label, direction):
        k, eps = label.k, label.epsilon
        g = np.sqrt((k * k - (eps - np.array(self.PROFILE.values)) ** 2).astype(complex))
        seed = g[0].real if direction > 0 else -g[-1].real
        regions, _ = _carry(self.PROFILE, k, eps, 1.0, seed, direction)
        psi, dpsi, log = map(np.array, zip(*regions))
        scale = 0.5 * np.exp(log)
        check_steps(self.PROFILE, g, (psi + dpsi / g) * scale, (psi - dpsi / g) * scale, 1e-12)

    def test_carried_wave_matches_at_every_step(self, label):
        wave = _carried_wave(self.PROFILE, label)
        assert wave.steps == self.PROFILE.breakpoints
        # one walk: the step to its far exterior carries the root's rounding
        check_steps(self.PROFILE, wave.g, wave.a, wave.b, 1e-8)

    def test_rejects_non_roots(self):
        for k, v0 in ((2.0, 2.0), (3.0, 8.0)):
            roots = find_roots(square_well_secular(k, v0))
            for a, b in zip(roots[:-1], roots[1:]):
                with pytest.raises(NotAnEigenvalue, match="no matching nullspace at epsilon="):
                    assemble_square_well_state(QuantumLabel(k, 0.5 * (a + b)), v0)

    def test_rejects_non_decaying_exterior(self):
        with pytest.raises(OutsideAdmissibleBand):
            assemble_square_well_state(QuantumLabel(k=2.0, epsilon=2.5), 2.0)


def step_mismatches(wave, profile):
    """|psi_r - psi_l| and |psi'_r - psi'_l - i J psi_l| at every step of
    profile, over the largest |psi| there, from the wave's own table."""
    steps = np.array(profile.breakpoints)
    g, a, b = wave.g[:-1], wave.a[:-1], wave.b[:-1]
    t = np.diff(steps, prepend=steps[0])  # each region's width; 0 on the left exterior
    psi_l, dpsi_l = a * np.exp(g * t) + b * np.exp(-g * t), g * (a * np.exp(g * t) - b * np.exp(-g * t))
    psi_r, dpsi_r = wave.a[1:] + wave.b[1:], wave.g[1:] * (wave.a[1:] - wave.b[1:])
    top = np.max(np.abs(psi_r))
    jump = 1j * np.diff(profile.values) * psi_l
    return np.abs(psi_r - psi_l) / top, np.abs(dpsi_r - dpsi_l - jump) / top


def assert_every_root_carries(profile, k, tol=1e-6):
    """Every transfer root of profile at k carries, continuous at every step
    and with the slope's i J psi jump, to tol of the wave's largest |psi|."""
    roots = find_roots(general_secular(FieldConfig(electric=profile), k))
    for eps in roots:
        values, slopes = step_mismatches(_carried_wave(profile, QuantumLabel(k, eps)), profile)
        assert max(values.max(), slopes.max()) <= tol, (profile, k, eps)
    return len(roots)


class TestRandomPiecewiseWells:
    # a root's rounding grows along a walk: one walk carries a state whose
    # barriers all rise towards it from that walk's start, and a state
    # between two barriers takes the two walks joined between them
    def test_every_root_carries(self):
        rng = np.random.default_rng(0)
        count = 0
        for _ in range(300):
            inner = int(rng.integers(1, 5))
            steps = tuple(np.sort(rng.uniform(-3.0, 3.0, inner + 1)))
            profile = PiecewiseConstant(steps, (0.0, *rng.uniform(-12.0, 6.0, inner), 0.0))
            count += assert_every_root_carries(profile, rng.uniform(0.3, 6.0) * rng.choice((-1.0, 1.0)))
        assert count > 1000

    def test_state_between_two_barriers(self):
        # barriers of kappa w = 14 on both sides of the level's well: each
        # walk alone keeps a growing share of 4e-4 at its far end
        profile = PiecewiseConstant(
            (-2.5733755510995326, -2.405523349309626, 0.14379074217479015,
             0.4378192090330879, 2.9771443516291356),
            (0.0, 4.775673722548493, -1.984968274773026, 5.314248107733022,
             -6.26305328217885, 0.0),
        )
        assert assert_every_root_carries(profile, -5.95183770377078) == 15

    def test_growing_term_across_a_barrier(self):
        # a barrier of kappa w = 19.6 right of a level's well: read at the
        # barrier's left step, its growing term is lost to rounding, and the
        # wave misses the next step by 1e-6
        profile = PiecewiseConstant(
            (-2.7079665201674423, -2.6149422570765317, 0.9364065376946806,
             1.5590806028531077, 2.8101312413439796),
            (0.0, -7.884111143160447, 3.5021948785040724, -11.781402857032328,
             -8.505313480172747, 0.0),
        )
        assert assert_every_root_carries(profile, -5.858328044966112) > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_wide_barrier_double_well(self):
        # the barrier's kappa w reaches 1386, past what exp holds in a double
        profile = PiecewiseConstant((-22.0, -20.0, 20.0, 22.0), (0.0, -60.0, 0.0, -47.0, 0.0))
        roots = find_roots(general_secular(FieldConfig(electric=profile), 40.0))
        assert len(roots) == 109
        for eps in roots:
            wave = _carried_wave(profile, QuantumLabel(40.0, eps))
            assert np.all(np.isfinite(wave.table))


class TestEvanescentBarrier:
    # a double well whose middle barrier is evanescent at every level, so
    # the carry rescales it and the wave must restore the factor
    PROFILE = PiecewiseConstant((-2.0, -0.5, 0.5, 2.0), (0.0, -5.0, 0.0, -5.0, 0.0))
    K = 2.0

    @pytest.fixture(scope="class")
    def roots(self):
        return find_roots(general_secular(FieldConfig(electric=self.PROFILE), self.K))

    def test_transfer_roots_agree_with_shooting(self, roots):
        shot = shooting_bound_states(FieldConfig(electric=self.PROFILE), self.K, step=5e-4)
        assert len(roots) == len(shot) == 6
        np.testing.assert_allclose(roots, shot, rtol=0.0, atol=1e-8)

    def test_carried_wave_matches_at_every_step_of_every_root(self, roots):
        for eps in roots:
            assert self.K**2 - eps**2 > 0.0  # the barrier is evanescent
            wave = _carried_wave(self.PROFILE, QuantumLabel(self.K, eps))
            check_steps(self.PROFILE, wave.g, wave.a, wave.b, 1e-7)


class TestDeepWells:
    # then a weakly bound level 4e-8 below the band edge, and two barriers
    @pytest.mark.parametrize(
        "k, v0, half_width, count",
        [(12.0, 35.0, 2.0, 34), (20.0, 60.0, 2.0, 55), (2.0, 1e-4, 1.0, 1),
         (2.0, -5.0, 1.0, 4), (3.0, -8.0, 0.7, 4)],
    )
    def test_every_root_assembles_cleanly(self, k, v0, half_width, count):
        states = assemble_all(k, v0, half_width)
        assert len(states) == count
        assert_family_is_clean(states)

    def test_widest_well_assembles(self):
        states = assemble_all(50.0, 120.0, 3.0, points=201)
        assert len(states) == 218
        for s in states:
            assert np.max(np.abs(s.psi2 - np.conj(s.psi1))) < 1e-10
            assert abs(s.norm - 1.0) < 1e-12

    def test_states_beyond_the_double_range_assemble(self):
        # in absolute x the exterior coefficient exp(p L) would square past
        # the largest double above the limit; anchored at its step no
        # coefficient holds that factor
        k, v0, half_width = 120.0, 300.0, 3.0
        roots = np.array(find_roots(square_well_secular(k, v0, half_width)))
        two_pl = 2.0 * np.sqrt(k * k - roots**2) * half_width
        limit = math.log(np.finfo(float).max)
        below = roots[np.argmax(np.where(two_pl < limit, two_pl, -1.0))]
        above = roots[np.argmin(np.where(two_pl > limit, two_pl, np.inf))]
        states = [
            assemble_square_well_state(QuantumLabel(k, float(e)), v0, half_width, 201)
            for e in (below, above)
        ]
        for s in states:
            assert abs(s.norm - 1.0) < 1e-12
        assert_family_is_clean(states)

    def test_every_25th_root_of_the_deepest_well(self):
        # 1425 levels; 53 of these 57 have 2 p L beyond the double range
        k, v0, half_width = 200.0, 500.0, 5.0
        roots = find_roots(square_well_secular(k, v0, half_width))[::25]
        states = [
            assemble_square_well_state(QuantumLabel(k, e), v0, half_width, 201) for e in roots
        ]
        assert len(states) == 57
        assert max(abs(s.norm - 1.0) for s in states) < 1e-12
        assert max(float(np.max(np.abs(s.psi2 - np.conj(s.psi1)))) for s in states) < 1e-10
        pt = [pt_eigenvalue(s) for s in states]
        assert max(min(abs(lam - 1j), abs(lam + 1j)) for lam in pt) < 1e-8
        assert np.max(np.abs(gram_matrix(states) - np.eye(len(states)))) < 1e-8
        # the sign rule holds: psi1 has a positive real part at the origin
        assert all(s.psi1[len(s.x) // 2].real > 0.0 for s in states)

    @settings(max_examples=50, deadline=None)
    @given(
        k=st.floats(0.2, 20.0),
        half_width=st.floats(0.2, 3.0),
        fill=st.floats(0.01, 1.0),
    )
    def test_random_wells_assemble_cleanly(self, k, half_width, fill):
        # depth with 2 L q_max = 18 pi fill, so the well holds at most 20 states
        reach = 9.0 * math.pi * fill / half_width
        v0 = reach * reach / (k + math.hypot(k, reach))
        states = assemble_all(k, v0, half_width)
        assert len(states) <= 20
        if states:
            assert_family_is_clean(states)


class TestPhaseFixing:
    def test_fix_phase_is_idempotent(self, well22_states):
        for s in well22_states:
            again = fix_phase(s)
            assert np.max(np.abs(again.psi1 - s.psi1)) < 1e-14

    def test_random_phases_are_removed(self, well22_states):
        rng = np.random.default_rng(11)
        s = well22_states[0]
        for theta in rng.uniform(-np.pi, np.pi, size=25):
            refixed = fix_phase(with_phase(s, float(theta)))
            assert np.max(np.abs(refixed.psi1 - s.psi1)) < 1e-12

    def test_with_phase_preserves_norm_and_density(self, well22_states):
        s = well22_states[1]
        rot = with_phase(s, 0.9)
        assert rot.norm == pytest.approx(s.norm, abs=1e-14)
        np.testing.assert_allclose(
            probability_density(rot).rho, probability_density(s).rho, atol=1e-14
        )

    def test_real_spinor_round_trip(self, well22_states):
        for s in well22_states:
            a, b = to_real_spinor(s)
            np.testing.assert_allclose((a - 1j * b) / 2.0, s.psi1, atol=1e-15)
            # second real component is carried by the conjugate partner
            np.testing.assert_allclose(b, -2.0 * s.psi1.imag, atol=0.0)

    def test_components_that_are_not_conjugate_are_refused(self, well22_states):
        s = well22_states[0]
        with pytest.raises(NotConjugatePair, match="not conjugate-collinear"):
            fix_phase(dataclasses.replace(s, wave2=s.wave1))


class TestReflectionConjugation:
    def test_eigenvalues_alternate(self, well22_states):
        expected = (1j, -1j, 1j)
        for s, want in zip(well22_states, expected):
            lam = pt_eigenvalue(s)
            assert lam == pytest.approx(want, abs=1e-8)

    def test_unimodular_under_any_phase(self, well22_states):
        s = well22_states[2]
        for theta in (0.3, 1.1, 2.9):
            assert abs(pt_eigenvalue(with_phase(s, theta))) == pytest.approx(1.0, abs=1e-10)

    def test_sign_flip_keeps_eigenvalue(self, well22_states):
        s = well22_states[0]
        assert pt_eigenvalue(with_phase(s, math.pi)) == pytest.approx(
            pt_eigenvalue(s), abs=1e-10
        )

    def test_asymmetric_samples_are_rejected(self, well22_states):
        s = well22_states[0]
        broken = np.array(s.psi1)
        broken[: len(broken) // 3] *= 1.5
        doctored = dataclasses.replace(s, psi1=broken)
        with pytest.raises(BrokenPTSymmetry):
            pt_eigenvalue(doctored)


class TestDensities:
    def test_density_integrates_to_one(self, well22_states):
        for s in well22_states:
            d = probability_density(s)
            assert float(np.trapezoid(d.rho, d.x)) == pytest.approx(1.0, abs=1e-5)

    def test_density_nonnegative_and_phase_invariant(self, well22_states):
        s = well22_states[1]
        d = probability_density(s)
        assert np.all(d.rho >= 0.0)
        np.testing.assert_allclose(
            probability_density(with_phase(s, 1.3)).rho, d.rho, atol=1e-14
        )

    def test_transverse_current_vanishes(self, well22_states):
        for s in well22_states:
            assert np.all(current_density(s).j_x == 0.0)

    def test_current_bounded_by_density(self, well22_states):
        for s in well22_states:
            d = current_density(s)
            assert np.all(np.abs(d.j_y) <= d.rho + 1e-12)

    def test_node_structure(self, well22_states):
        # the relativistic density never reaches zero between lobes, so the
        # default depth cut sees no nodes even in excited states; counting
        # minima at any depth recovers the 0 / 1 / 2 ladder
        dips = []
        for n, s in enumerate(well22_states):
            d = probability_density(s)
            assert count_density_nodes(d) == 0
            assert count_density_nodes(d, depth=1.0) == n
            if n:
                inner = d.rho[1:-1]
                is_min = (inner < d.rho[:-2]) & (inner < d.rho[2:])
                dips.append(float(np.min(inner[is_min]) / np.max(d.rho)))
        assert dips[0] == pytest.approx(0.220815, abs=1e-3)
        assert dips[1] == pytest.approx(0.324989, abs=1e-3)

    def test_component_zero_ladder(self, well22_states):
        # zero crossings of the real and imaginary parts both count the
        # excitation index
        for n, s in enumerate(well22_states):
            keep = np.abs(s.psi1) > 1e-9 * np.max(np.abs(s.psi1))
            for part in (s.psi1.real[keep], s.psi1.imag[keep]):
                crossings = int(np.count_nonzero(np.sign(part[:-1]) * np.sign(part[1:]) < 0))
                assert crossings == n


class TestOverlaps:
    def test_orthonormal_family(self, well22_states):
        gram = np.array(
            [[inner_product(a, b) for b in well22_states] for a in well22_states]
        )
        assert np.max(np.abs(gram - np.eye(3))) < 1e-8

    def test_mixed_momenta_are_rejected(self, well22_states):
        eps = find_roots(square_well_secular(3.0, 8.0))[0]
        other = assemble_square_well_state(QuantumLabel(k=3.0, epsilon=eps), 8.0)
        with pytest.raises(MismatchedMomentum):
            inner_product(well22_states[0], other)

    def test_different_potentials_are_rejected(self, well22_states):
        eps = find_roots(square_well_secular(2.0, 3.0))[0]
        other = assemble_square_well_state(QuantumLabel(k=2.0, epsilon=eps), 3.0)
        with pytest.raises(UnsupportedRegime):
            inner_product(well22_states[0], other)
        with pytest.raises(UnsupportedRegime):
            gram_matrix([well22_states[0], other])

    @pytest.mark.parametrize("block", [256, 5])
    def test_gram_matrix_equals_pairwise_inner_products(self, monkeypatch, block):
        monkeypatch.setattr(states_module, "GRAM_BLOCK", block)
        states = assemble_all(12.0, 35.0, 2.0)
        pairwise = np.array([[inner_product(a, b) for b in states] for a in states])
        assert np.max(np.abs(gram_matrix(states) - pairwise)) < 1e-14
        assert gram_matrix([]).shape == (0, 0)

    def test_overlap_is_phase_invariant_up_to_square(self, well22_states):
        # the bilinear (unconjugated) overlap picks up exp(2 i theta)
        s = well22_states[0]
        rot = with_phase(s, 0.25)
        assert inner_product(rot, rot) == pytest.approx(
            np.exp(0.5j) * inner_product(s, s), abs=1e-10
        )


class TestResiduals:
    def test_first_order_exact(self, well22_states):
        for s in well22_states:
            assert equation_residuals(s).max_abs < 1e-8

    def test_first_order_stencil(self, well22_states):
        for s in well22_states:
            report = equation_residuals(s, grid_derivatives=True)
            assert len(report.x) > 0
            assert report.max_abs < 1e-6

    def test_second_order_exact(self, well22_states):
        for s in well22_states:
            assert second_order_residuals(s).max_abs < 1e-8

    def test_second_order_stencil(self, well22_states):
        for s in well22_states:
            report = second_order_residuals(s, grid_derivatives=True)
            assert len(report.x) > 0
            assert report.max_abs < 1e-6

    def test_stencil_mode_excludes_steps(self, well22_states):
        s = well22_states[0]
        report = equation_residuals(s, grid_derivatives=True)
        h = s.x[1] - s.x[0]
        for b in s.potential.breakpoints:
            assert np.min(np.abs(report.x - b)) > 5.0 * h


class TestSerialization:
    def test_csv_shape(self, well22_states):
        s = well22_states[0]
        lines = state_to_csv(s).splitlines()
        assert lines[0] == "x,re_psi1,im_psi1,re_psi2,im_psi2,rho,jy"
        assert len(lines) == len(s.x) + 1
        assert all(len(line.split(",")) == 7 for line in lines[1:])

    def test_csv_rows_equal_the_per_sample_reference(self, well22_states):
        # the repr of each sample read as a Python float, one row at a time
        for s in well22_states:
            d = current_density(s)
            rows = [
                ",".join(repr(float(v)) for v in (
                    s.x[i], s.psi1[i].real, s.psi1[i].imag, s.psi2[i].real, s.psi2[i].imag,
                    d.rho[i], d.j_y[i],
                ))
                for i in range(len(s.x))
            ]
            assert state_to_csv(s).splitlines()[1:] == rows

    def test_json_keys_and_determinism(self, well22_states):
        s = well22_states[1]
        payload = json.loads(state_to_json(s))
        assert set(payload) == {
            "k", "epsilon", "v0", "half_width", "norm", "pt_eigenvalue",
            "x", "re_psi1", "im_psi1", "re_psi2", "im_psi2", "rho", "jy",
        }
        assert payload["k"] == 2.0
        assert payload["pt_eigenvalue"] == pytest.approx([0.0, -1.0], abs=1e-8)
        assert state_to_json(s) == state_to_json(s)

    def test_json_of_a_state_without_reflection_symmetry(self, well22_states):
        s = well22_states[0]
        skewed = dataclasses.replace(s, psi1=s.psi1 * np.linspace(1.0, 2.0, len(s.x)))
        assert json.loads(state_to_json(skewed))["pt_eigenvalue"] is None
