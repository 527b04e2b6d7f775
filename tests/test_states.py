"""Assembled bound states: conjugate structure, phase fixing, densities,
orthonormality, reflection symmetry, and equation residuals."""

import cmath
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracwell import (
    FieldConfig,
    Lorentzian,
    PiecewiseConstant,
    PiecewiseExp,
    QuantumLabel,
    assemble_square_well_state,
    assemble_state,
    current_density,
    equation_residuals,
    find_roots,
    general_secular,
    gram_matrix,
    inner_product,
    probability_density,
    pt_eigenvalue,
    second_order_residuals,
    square_well,
    square_well_secular,
    state_to_csv,
    state_to_json,
)
from diracwell import states as states_module
from diracwell.errors import (
    BrokenPTSymmetry,
    ConfigError,
    NotAnEigenvalue,
    NotConjugatePair,
    OutsideAdmissibleBand,
    UnsupportedRegime,
)
from diracwell.matching import _carry, _region_wavenumbers
from diracwell.oracle import shooting_bound_states
from diracwell.spectrum import MAX_GRID_POINTS
from diracwell.states import _canonical_gauge, _carried_wave, _overlaps, _sample


@pytest.fixture(scope="module")
def well22_states():
    return assemble_all(2.0, 2.0, 1.0, points=4001)


@pytest.fixture(scope="module")
def barrier_state():
    """The lowest state of TestEvanescentBarrier's double well, whose middle barrier is evanescent."""
    profile, k = TestEvanescentBarrier.PROFILE, TestEvanescentBarrier.K
    lowest = find_roots(general_secular(FieldConfig(electric=profile), k))[0]
    return assemble_state(profile, QuantumLabel(k, lowest), 401)


def per_table(wave, x):
    """wave at the points x with each region's exponentials computed for this table alone."""
    xs = np.asarray(x, dtype=float)
    i = np.searchsorted(wave.steps, xs, side="right")
    out = np.empty(xs.shape, dtype=complex)
    last = len(wave.steps)
    for r in range(last + 1):
        m = i == r
        g, a, b = wave.table[:, r]
        gt = g * (xs[m] - wave.steps[max(r - 1, 0)])
        if r == last:
            out[m] = b * np.exp(-gt)
        elif g.real > 0:
            out[m] = a * np.exp(g * (xs[m] - wave.steps[r])) + (b * np.exp(-gt) if r else 0.0)
        else:
            e = np.exp(gt)
            out[m] = a * e + b / e
    return out if np.ndim(x) else complex(out)


def line_integral(f):
    """Integral of f(x)^2 over the line (no conjugation), by the closed-form
    engine behind the norm, the gauge and inner_product."""
    return complex(_overlaps(f.steps, [[f.table]], [[f.table]])[0, 0])


def rotated_waves(state, theta):
    """Both components' waves times exp(i theta)."""
    factor = cmath.exp(1j * theta)
    return [PiecewiseExp(w.steps, w.g, factor * w.a, factor * w.b) for w in (state.wave1, state.wave2)]


def rotated(state, theta):
    """dataclasses.replace copy of a state with both components, samples
    and waves, times exp(i theta)."""
    factor = cmath.exp(1j * theta)
    wave1, wave2 = rotated_waves(state, theta)
    return dataclasses.replace(state, psi1=factor * state.psi1, psi2=factor * state.psi2, wave1=wave1, wave2=wave2)


class TestPiecewiseExp:
    # exp(x) left of the step at 0 and exp(-x) right of it
    CUSP = PiecewiseExp((0.0,), g=(1.0, 1.0), a=(1.0, 0.0), b=(0.0, 1.0))

    def test_evaluation_and_derivative(self):
        f = self.CUSP
        assert f(0.0) == pytest.approx(1.0)
        assert f(-2.0) == pytest.approx(math.exp(-2.0))
        assert f.derivative()(1.0) == pytest.approx(-math.exp(-1.0))

    def test_line_integral_exact(self):
        # integral of exp(-2|x|) over the line is exactly 1
        assert line_integral(self.CUSP) == pytest.approx(1.0, abs=1e-15)

    def test_divergent_integral_raises(self):
        # an exterior term that grows outward would make every integral diverge
        with pytest.raises(ConfigError):
            PiecewiseExp((0.0,), g=(0.5, 0.5), a=(1.0, 1.0), b=(0.0, 0.0))
        with pytest.raises(ConfigError):
            PiecewiseExp((0.0,), g=(-0.5, 0.5), a=(1.0, 0.0), b=(0.0, 1.0))

    @pytest.mark.parametrize(
        "steps, g, a, b",
        [
            # unsorted steps: its integral of f^2 was -1.909
            ((1.0, 0.0), (1, 1j, 1), (1, 1, 0), (0, 1, 1)),
            ((0.0, 0.0), (1, 1j, 1), (1, 1, 0), (0, 1, 1)),
            ((0.0, math.inf), (1, 1j, 1), (1, 1, 0), (0, 1, 1)),
            ((math.nan,), (1, 1), (1, 0), (0, 1)),
            # min(1.0, nan) is 1.0: a NaN exterior rate passed the decay check
            ((0.0,), (1.0, math.nan), (1, 0), (0, 1)),
            ((0.0, 1.0), (1, math.inf, 1), (1, 1, 0), (0, 1, 1)),
            ((0.0, 1.0), (1, 1j, 1), (1, math.nan, 0), (0, 1, 1)),
            ((0.0, 1.0), (1, 1j, 1), (1, 1, 0), (0, complex(1, math.inf), 1)),
            # Re g < 0 inside: the b term grows away from its left-step
            # anchor, and evaluating at 799 divided by zero
            ((0.0, 800.0), (1, -1, 1), (1, 0, 0), (0, 1, 0)),
        ],
        ids=["unsorted", "repeated", "infinite-step", "nan-step", "nan-rate",
             "infinite-rate", "nan-a", "infinite-b", "inner-rate-decaying"],
    )
    def test_bad_tables_are_refused(self, steps, g, a, b):
        with pytest.raises(ConfigError):
            PiecewiseExp(steps, g=g, a=a, b=b)

    @pytest.mark.parametrize("width", [1.0, 2000.0])
    def test_growing_term_is_anchored_at_its_right_step(self, width):
        # exp(x - w) on 0 < x < w and exp(w - x) right of it: the inner term
        # grows, so its coefficient 1 is its value at the right step
        f = PiecewiseExp((0.0, width), g=(1.0, 1.0, 1.0), a=(0.0, 1.0, 0.0), b=(0.0, 0.0, 1.0))
        assert f(width - 0.5) == pytest.approx(math.exp(-0.5))
        assert f(width + 0.5) == pytest.approx(math.exp(-0.5))
        assert f(0.5) == pytest.approx(math.exp(0.5 - width))
        # (1 - exp(-2 w)) / 2 inside and 1/2 right of it, with no overflow
        want = 1.0 - 0.5 * math.exp(-2.0 * width)
        assert line_integral(f) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("which", ["square-well", "evanescent-barrier"])
    def test_shared_evaluation_equals_the_per_table_reference(self, well22_states, barrier_state, which):
        # both exteriors, oscillating wells and (for the barrier) an evanescent middle region
        s = {"square-well": well22_states[1], "evanescent-barrier": barrier_state}[which]
        waves = [s.wave1, s.wave2, s.wave1.derivative(), s.wave2.derivative()]
        assert s.wave1.g[1].real == 0.0  # an oscillating well: both terms anchored at its left step
        assert which == "square-well" or s.wave1.g[2].real > 0.0  # the middle barrier: its a term grows
        steps = s.potential.breakpoints
        x = np.random.default_rng(3).permutation(np.concatenate((s.x, steps, [-1e3, 1e3])))
        for points in (x, np.empty(0), x[:1].reshape(1, 1)):
            want = [per_table(w, points).tobytes() for w in waves]
            assert [got.tobytes() for got in _sample(waves, points)] == want
            assert [w(points).tobytes() for w in waves] == want
        for point in (0.0, *steps, -1e3):  # a scalar x gives complex numbers
            want = [per_table(w, point) for w in waves]
            assert _sample(waves, point) == want == [w(point) for w in waves]
            assert all(type(v) is complex for v in _sample(waves, point))


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

    def test_zero_momentum_is_refused_before_the_partner(self, monkeypatch):
        # the partner divides by k; at k = 0 no exterior decays, so the carried wave refuses first
        monkeypatch.setattr(states_module, "_partner_component", None)
        with pytest.raises(OutsideAdmissibleBand, match="decaying exteriors"):
            assemble_state(square_well(2.0), QuantumLabel(k=0.0, epsilon=0.5))

    def test_requested_point_count_is_honored(self):
        eps = find_roots(square_well_secular(2.0, 2.0))[0]
        for points in (801, np.int64(801)):
            s = assemble_square_well_state(QuantumLabel(k=2.0, epsilon=eps), 2.0, points=points)
            assert len(s.x) == 801

    def test_too_few_points_are_rejected(self):
        label = QuantumLabel(k=2.0, epsilon=find_roots(square_well_secular(2.0, 2.0))[0])
        for points in (2, 0, -5):
            with pytest.raises(ConfigError, match="at least 3 points"):
                assemble_square_well_state(label, 2.0, points=points)
        # an even count is rounded up to the next odd one
        assert len(assemble_square_well_state(label, 2.0, points=4).x) == 5

    @pytest.mark.parametrize("points", [5.5, math.nan, "7", True])
    def test_points_that_are_not_an_integer_are_refused_before_carrying(self, points, monkeypatch):
        # 5.5 used to sample 5 points, and NaN failed in int() after the carry
        label = QuantumLabel(k=2.0, epsilon=find_roots(square_well_secular(2.0, 2.0))[0])
        monkeypatch.setattr(states_module, "_carried_wave", None)
        with pytest.raises(ConfigError, match="points must be an integer"):
            assemble_square_well_state(label, 2.0, points=points)

    # an even count is rounded up to odd first, so the cap itself is one past it
    @pytest.mark.parametrize("points", [MAX_GRID_POINTS, MAX_GRID_POINTS + 1])
    def test_too_many_points_are_refused_before_allocating(self, points):
        label = QuantumLabel(k=2.0, epsilon=find_roots(square_well_secular(2.0, 2.0))[0])
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"at most {MAX_GRID_POINTS} points"):
                assemble_square_well_state(label, 2.0, points=points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # one grid of that size alone is 8 MB

    def test_samples_are_read_only(self, well22_states):
        s = well22_states[0]
        for copy in (s, rotated(s, 0.7)):
            for samples in (copy.x, copy.psi1, copy.psi2):
                with pytest.raises(ValueError, match="read-only"):
                    samples[0] = 0.0
        # the grid a caller passes in stays writeable; the state holds a read-only copy
        x = np.array(s.x)
        again = dataclasses.replace(s, x=x)
        assert x.flags.writeable and not again.x.flags.writeable
        assert not np.shares_memory(x, again.x)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.norm = 2.0


def assert_family_is_clean(states):
    """The bounds `verify` applies: conjugate components, PT eigenvalue
    +/-i and an orthonormal family."""
    conj = max(float(np.max(np.abs(s.psi2 - np.conj(s.psi1)))) for s in states)
    pt = max(min(abs(pt_eigenvalue(s) - 1j), abs(pt_eigenvalue(s) + 1j)) for s in states)
    assert conj < 1e-10
    assert pt < 1e-8
    assert np.max(np.abs(gram_matrix(states) - np.eye(len(states)))) < 1e-8


def assemble_all(k, v0, half_width, points=401, every=1):
    roots = find_roots(square_well_secular(k, v0, half_width))[::every]
    return [assemble_square_well_state(QuantumLabel(k, e), v0, half_width, points) for e in roots]


def step_mismatches(profile, g, a, b):
    """|psi_r - psi_l|, |psi'_r - psi'_l - i J psi_l|, |psi_l| + |psi'_l| and
    |psi_r| at every step of profile, for the wave with region coefficients
    (g, a, b) anchored as PiecewiseExp anchors them: a at the right step
    where Re g > 0, every other term at the left step."""
    steps = np.array(profile.breakpoints)
    g, a, b = map(np.asarray, (g, a, b))
    w = np.diff(steps, prepend=steps[0], append=steps[-1])  # each region's width; 0 on both exteriors
    grows = g.real > 0
    a_l, a_r = a * np.exp(np.where(grows, -g * w, 0.0)), a * np.exp(np.where(grows, 0.0, g * w))
    b_l, b_r = b, b * np.exp(-g * w)
    psi_l, dpsi_l = (a_r + b_r)[:-1], (g * (a_r - b_r))[:-1]
    psi_r, dpsi_r = (a_l + b_l)[1:], (g * (a_l - b_l))[1:]
    jump = 1j * np.diff(profile.values) * psi_l
    return np.abs(psi_r - psi_l), np.abs(dpsi_r - dpsi_l - jump), np.abs(psi_l) + np.abs(dpsi_l), np.abs(psi_r)


def check_steps(profile, g, a, b, tol):
    """Assert that the wave (g, a, b) is continuous at every step of profile
    and that its slope jumps there by i J psi, relative to |psi| + |psi'|."""
    values, slopes, scale, _ = step_mismatches(profile, g, a, b)
    assert np.all(values < tol * scale) and np.all(slopes < tol * scale)


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
        # the pairs sit at the left steps, where a growing a term is exp(-g w) of its anchor value
        steps = self.PROFILE.breakpoints
        w = np.diff(steps, prepend=steps[0], append=steps[-1])  # 0 on both exteriors
        a = (psi + dpsi / g) * scale * np.exp(np.where(g.real > 0, g * w, 0.0))
        check_steps(self.PROFILE, g, a, (psi - dpsi / g) * scale, 1e-12)

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

    def test_rejects_non_decaying_exterior(self, monkeypatch):
        monkeypatch.setattr(states_module, "_carry", None)
        with pytest.raises(OutsideAdmissibleBand):
            assemble_square_well_state(QuantumLabel(k=2.0, epsilon=2.5), 2.0)
        for eps in (2.4, -1.6, math.nan, 1e200):  # past the exterior at 0, past the one at 0.5
            with pytest.raises(OutsideAdmissibleBand, match="decaying exteriors"):
                assemble_state(self.PROFILE, QuantumLabel(self.K, eps))

    def test_rejects_a_region_at_the_band_edge(self, monkeypatch):
        monkeypatch.setattr(states_module, "_carry", None)  # g = 0 inside, which the walk's reads divide by
        for potential, eps in ((square_well(3.0), -1.0), (self.PROFILE, -0.5)):  # q = 0; the inner -2.5
            with pytest.raises(OutsideAdmissibleBand, match="no region [|]epsilon - V[|] = [|]k[|]"):
                assemble_state(potential, QuantumLabel(self.K, eps))


def assert_every_root_carries(profile, k, tol=1e-6, points=3):
    """The states at every transfer root of profile at k, each wave
    continuous at every step and with the slope's i J psi jump, to tol of
    its largest |psi|, and their Gram matrix the identity to 1e-8."""
    roots = find_roots(general_secular(FieldConfig(electric=profile), k))
    states = [assemble_state(profile, QuantumLabel(k, eps), points) for eps in roots]
    for s in states:
        values, slopes, _, size = step_mismatches(profile, *s.wave1.table)
        assert max(values.max(), slopes.max()) <= tol * size.max(), (profile, k, s.label.epsilon)
    assert np.max(np.abs(gram_matrix(states) - np.eye(len(states))), initial=0.0) < 1e-8, (profile, k)
    return states


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
            count += len(assert_every_root_carries(profile, rng.uniform(0.3, 6.0) * rng.choice((-1.0, 1.0))))
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
        assert len(assert_every_root_carries(profile, -5.95183770377078)) == 15

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
        assert len(assert_every_root_carries(profile, -5.858328044966112)) > 0

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


class TestPiecewiseStates:
    # a growing term anchored where it is largest: no term and no integral
    # of a pair of terms overflows, however wide the barrier (warnings are
    # errors here, as everywhere in the suite)
    @pytest.mark.parametrize(
        "profile, k, count",
        [
            # the barrier's kappa w reaches 1386, past what exp holds in a double
            (PiecewiseConstant((-22.0, -20.0, 20.0, 22.0), (0.0, -60.0, 0.0, -47.0, 0.0)), 40.0, 109),
            (TestEvanescentBarrier.PROFILE, TestEvanescentBarrier.K, 6),
            (TestCarry.PROFILE, TestCarry.K, 4),
        ],
        ids=["wide-barrier-double-well", "evanescent-double-barrier", "three-steps"],
    )
    def test_every_root_assembles(self, profile, k, count):
        states = assert_every_root_carries(profile, k, points=101)
        assert len(states) == count
        assert max(abs(s.norm - 1.0) for s in states) < 1e-12
        assert max(float(np.max(np.abs(s.psi2 - np.conj(s.psi1)))) for s in states) < 1e-10
        assert max(equation_residuals(s).max_abs for s in states) < 1e-8
        assert max(second_order_residuals(s).max_abs for s in states) < 1e-8


class TestAssembleState:
    # the wells of the CI verify steps
    @pytest.mark.parametrize(
        "k, v0, half_width",
        [(2.0, 2.0, 1.0), (3.0, 8.0, 1.0), (30.0, 40.0, 1.5), (2.0, -5.0, 1.0), (2.0, 0.0, 1.0),
         (50.0, 20.0, 3.0), (2.0, 1e-4, 1.0), (50.0, 120.0, 3.0), (200.0, 500.0, 5.0)],
    )
    def test_square_well_grid_reaches_12_decay_lengths_past_the_steps(self, k, v0, half_width):
        # every 25th root of the 1425-level well; p as _region_wavenumbers gives it
        roots = find_roots(square_well_secular(k, v0, half_width))
        for eps in roots[:: 25 if len(roots) > 1000 else 1]:
            label = QuantumLabel(k, eps)
            s = assemble_state(square_well(v0, half_width), label, 3)
            assert s.x[-1] == -s.x[0] == half_width + 12.0 / _region_wavenumbers(k, eps, v0)[0]

    def test_only_step_profiles_are_assembled(self, monkeypatch):
        monkeypatch.setattr(states_module, "_carried_wave", None)
        for potential in (Lorentzian(-2.0), PiecewiseConstant((), (0.0,))):
            with pytest.raises(ConfigError, match="piecewise-constant profile with a step"):
                assemble_state(potential, QuantumLabel(2.0, 0.5))

    def test_json_is_refused_off_the_square_well(self):
        s = assert_every_root_carries(TestCarry.PROFILE, TestCarry.K, points=21)[0]
        with pytest.raises(UnsupportedRegime, match="square wells only"):
            state_to_json(s)
        assert len(state_to_csv(s).splitlines()) == len(s.x) + 1 == 22


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
        states = assemble_all(200.0, 500.0, 5.0, points=201, every=25)
        assert len(states) == 57
        assert max(abs(s.norm - 1.0) for s in states) < 1e-12
        assert_family_is_clean(states)
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
    def test_gauge_is_idempotent(self, well22_states):
        for s in well22_states:
            assert _canonical_gauge(s.wave1, s.wave2.table) == pytest.approx(1.0, abs=1e-12)

    def test_random_phases_are_removed(self, well22_states):
        rng = np.random.default_rng(11)
        s = well22_states[0]
        for theta in rng.uniform(-np.pi, np.pi, size=25):
            wave1, wave2 = rotated_waves(s, float(theta))
            factor = _canonical_gauge(wave1, wave2.table)
            for wave, samples in ((wave1, s.psi1), (wave2, s.psi2)):
                assert np.max(np.abs(factor * wave(s.x) - samples)) < 1e-12

    def test_global_phase_preserves_density(self, well22_states):
        s = well22_states[1]
        np.testing.assert_allclose(
            probability_density(rotated(s, 0.9)).rho, probability_density(s).rho, atol=1e-14
        )

    def test_components_that_are_not_conjugate_are_refused(self, well22_states):
        s = well22_states[0]
        with pytest.raises(NotConjugatePair, match="not conjugate-collinear"):
            _canonical_gauge(s.wave1, s.wave1.table)

    @pytest.mark.parametrize("potential, k", [
        (square_well(2.0), 2.0),
        (square_well(120.0, 3.0), 50.0),
        (PiecewiseConstant((-2.0, -0.5, 0.5, 2.0), (0.0, 3.0, -4.0, 3.0, 0.0)), 1.5),
    ], ids=["2-2-1", "50-120-3", "barrier-well-barrier"])
    def test_each_state_builds_four_tables(self, potential, k, monkeypatch):
        # the carried wave, its partner and the two gauged components
        calls = []
        build = PiecewiseExp.__init__
        monkeypatch.setattr(PiecewiseExp, "__init__", lambda *args: calls.append(1) or build(*args))
        roots = find_roots(general_secular(FieldConfig(electric=potential), k))
        assert roots
        for eps in roots:
            before = len(calls)
            assemble_state(potential, QuantumLabel(k, eps), points=201)
            assert len(calls) - before == 4


class TestReflectionConjugation:
    def test_eigenvalues_alternate(self, well22_states):
        expected = (1j, -1j, 1j)
        for s, want in zip(well22_states, expected):
            lam = pt_eigenvalue(s)
            assert lam == pytest.approx(want, abs=1e-8)

    def test_unimodular_under_any_phase(self, well22_states):
        s = well22_states[2]
        for theta in (0.3, 1.1, 2.9):
            assert abs(pt_eigenvalue(rotated(s, theta))) == pytest.approx(1.0, abs=1e-10)

    def test_sign_flip_keeps_eigenvalue(self, well22_states):
        s = well22_states[0]
        assert pt_eigenvalue(rotated(s, math.pi)) == pytest.approx(
            pt_eigenvalue(s), abs=1e-10
        )

    def test_asymmetric_samples_are_rejected(self, well22_states):
        s = well22_states[0]
        broken = np.array(s.psi1)
        broken[: len(broken) // 3] *= 1.5
        doctored = dataclasses.replace(s, psi1=broken)
        with pytest.raises(BrokenPTSymmetry):
            pt_eigenvalue(doctored)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.inf, 1.0), 0.0])
    def test_null_or_non_finite_samples_are_rejected(self, well22_states, bad):
        # a non-finite sample used to give nan+nanj, warning in the divide
        s = well22_states[0]
        samples = np.array(s.psi1)
        samples[7 if bad else slice(None)] = bad
        with pytest.raises(BrokenPTSymmetry, match="squared norm"):
            pt_eigenvalue(dataclasses.replace(s, psi1=samples))


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
            probability_density(rotated(s, 1.3)).rho, d.rho, atol=1e-14
        )

    def test_transverse_current_vanishes(self, well22_states):
        for s in well22_states:
            assert np.all(current_density(s).j_x == 0.0)

    def test_current_bounded_by_density(self, well22_states):
        for s in well22_states:
            d = current_density(s)
            assert np.all(np.abs(d.j_y) <= d.rho + 1e-12)

    def test_node_structure(self, well22_states):
        # the relativistic density never reaches zero between lobes, but its
        # interior minima recover the 0 / 1 / 2 ladder
        dips = []
        for n, s in enumerate(well22_states):
            d = probability_density(s)
            inner = d.rho[1:-1]
            is_min = (inner < d.rho[:-2]) & (inner < d.rho[2:])
            assert np.count_nonzero(is_min) == n
            if n:
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
        with pytest.raises(UnsupportedRegime):
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
        rot = rotated(s, 0.25)
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

    def test_exact_residuals_equal_the_per_wave_derivatives(self, well22_states, barrier_state):
        for s in (*well22_states, barrier_state):
            k, x = s.label.k, s.x
            d1, d2 = (w.derivative()(x) for w in (s.wave1, s.wave2))
            delta = s.label.epsilon - s.potential.evaluate(x)
            report = equation_residuals(s)
            assert np.array_equal(report.residual_1, d1 + 1j * delta * s.psi1 - k * s.psi2)
            assert np.array_equal(report.residual_2, d2 - 1j * delta * s.psi2 - k * s.psi1)
            # and the second-order residuals to the per-wave second derivatives
            # off the steps, or to the stencil's; v' = 0 there, so the
            # potential term is 2 eps v - v^2
            eps, keep = s.label.epsilon, ~np.isin(x, s.potential.breakpoints)
            exact = (x[keep], s.psi1[keep], s.psi2[keep],
                     *(w.derivative().derivative()(x[keep]) for w in (s.wave1, s.wave2)))
            stencil = states_module._stencil_points(
                s, lambda w, h: (-w[4:] + 16 * w[3:-1] - 30 * w[2:-2] + 16 * w[1:-3] - w[:-4]) / (12 * h * h)
            )
            for grid, (xs, w1, w2, dd1, dd2) in ((False, exact), (True, stencil)):
                v = s.potential.evaluate(xs)
                u, mu = 2.0 * eps * v - v**2, -(k**2 - eps**2)
                report = second_order_residuals(s, grid_derivatives=grid)
                assert np.array_equal(report.x, xs)
                assert np.array_equal(report.residual_1, -dd1 + u * w1 - mu * w1)
                assert np.array_equal(report.residual_2, -dd2 + u * w2 - mu * w2)

    def test_reports_compare_by_identity_and_hash(self, well22_states):
        # their fields are arrays: a generated == raised ValueError and hash TypeError
        s = well22_states[0]
        for report in (probability_density(s), current_density(s), equation_residuals(s)):
            twin = dataclasses.replace(report)
            assert report == report and report != twin
            assert len({report, twin, report}) == 2

    def test_stencil_mode_excludes_steps(self, well22_states):
        s = well22_states[0]
        report = equation_residuals(s, grid_derivatives=True)
        h = s.x[1] - s.x[0]
        for b in s.potential.breakpoints:
            assert np.min(np.abs(report.x - b)) > 5.0 * h


def dumped(state, text):
    """json.dumps of text's scalars and the state's sample columns."""
    columns = {key: c.tolist() for key, c in zip(states_module.COLUMNS, states_module._columns(state))}
    return json.dumps(json.loads(text) | columns, sort_keys=True)


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

    # (k, v0, half_width, points); 3 is the fewest points a state takes
    @pytest.mark.parametrize("well", [(2.0, 2.0, 1.0, 4001), (3.0, 8.0, 1.0, 4001), (4.0, 7.8, 1.35, 4001),
                                      (3.0, 8.0, 1.0, 3)])
    def test_json_after_csv_equals_json_of_a_fresh_state(self, well):
        # both are laid out from the CSV's tokens, byte for byte as json.dumps writes the samples
        for s in assemble_all(*well):
            fresh = state_to_json(s)
            state_to_csv(s)
            assert state_to_json(s) == fresh == dumped(s, fresh)

    def test_writing_into_the_callers_arrays_leaves_the_text_alone(self, well22_states):
        s = well22_states[0]
        x, psi1 = np.array(s.x), np.array(s.psi1)
        t = dataclasses.replace(s, x=x, psi1=psi1)
        expected = state_to_csv(t), state_to_json(t)
        x[0], psi1[0] = 5.0, 5.0
        assert (state_to_csv(t), state_to_json(t)) == expected
        assert state_to_json(dataclasses.replace(t)) == expected[1]  # formatted afresh from t's samples

    def test_a_copy_starts_without_the_csv_text(self, well22_states):
        s = well22_states[0]
        text = state_to_csv(s)
        assert state_to_csv(s) is text
        assert "_csv" not in vars(dataclasses.replace(s))

    @pytest.mark.parametrize(
        "name, bad, token",
        [
            pytest.param("x", math.nan, "NaN", id="nan-NaN"),
            pytest.param("x", math.inf, "Infinity", id="inf-Infinity"),
            pytest.param("x", -math.inf, "-Infinity", id="-inf--Infinity"),
            pytest.param("psi1", math.nan, "NaN", id="psi1-nan"),
            pytest.param("psi1", math.inf, "Infinity", id="psi1-inf"),
            pytest.param("psi1", complex(math.inf, 1.0), "Infinity", id="psi1-inf+1j"),
            # finite, but its density overflows: rho is Infinity and j_y -Infinity
            pytest.param("psi1", complex(1e200, 1e200), "-Infinity", id="psi1-1e200+1e200j"),
        ],
    )
    def test_non_finite_samples_are_written_alike_in_both_orders(self, well22_states, name, bad, token):
        s = well22_states[0]
        # the first and the last sample are the CSV's first token after its header and its last token
        for index in (7, 0, -1):
            samples = np.array(getattr(s, name))
            samples[index] = bad
            fresh = state_to_json(dataclasses.replace(s, **{name: samples}))
            damaged = dataclasses.replace(s, **{name: samples})
            state_to_csv(damaged)
            assert state_to_json(damaged) == fresh
            assert fresh == dumped(damaged, fresh)
            assert f"{token}{', ' if index >= 0 else ']'}" in fresh
            # a non-finite psi1 has no PT eigenvalue, where it used to be [NaN, NaN]
            assert (json.loads(fresh)["pt_eigenvalue"] is None) == (name == "psi1")

    def test_json_of_a_state_without_reflection_symmetry(self, well22_states):
        s = well22_states[0]
        skewed = dataclasses.replace(s, psi1=s.psi1 * np.linspace(1.0, 2.0, len(s.x)))
        assert json.loads(state_to_json(skewed))["pt_eigenvalue"] is None
