"""Secular functions: the closed form and the transfer-matrix route,
cross-checked against one another."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracwell import (
    FieldConfig,
    Lorentzian,
    PiecewiseConstant,
    find_roots,
    general_secular,
    secular_det_square_well,
    square_well,
    square_well_config,
    square_well_secular,
)
from diracwell.errors import ConfigError, OutsideAdmissibleBand, UnsupportedRegime
from diracwell.matching import _band, _propagator_entries, _region_wavenumbers, _transfer_phase_slope

# reference spectrum of the (k=2, v0=2, L=1) well, lowest first
WELL22_ROOTS = (0.35427361798250695, 1.1335605119300567, 1.9258300731147544)


class TestRegionWavenumbers:
    def test_ground_state_values(self):
        p, q = _region_wavenumbers(2.0, WELL22_ROOTS[0], 2.0)
        assert p == pytest.approx(1.968372475829101, abs=1e-12)
        assert q == pytest.approx(1.242016210976509, abs=1e-12)

    def test_band_violations(self):
        with pytest.raises(OutsideAdmissibleBand):
            _region_wavenumbers(2.0, 2.5, 2.0)  # no decay
        with pytest.raises(OutsideAdmissibleBand):
            _region_wavenumbers(2.0, -1.9, 2.0)  # no oscillation
        with pytest.raises(OutsideAdmissibleBand):
            _region_wavenumbers(2.0, 2.0, 2.0)  # p = 0 edge
        with pytest.raises(OutsideAdmissibleBand):
            _region_wavenumbers(2.0, math.nan, 2.0)

    def test_an_overflowing_square_is_named(self):
        # q^2 = inf - inf was NaN, refused as "oscillatory interior needs
        # |epsilon + v0| > |k|" although 2e200 > 1e200
        with pytest.raises(UnsupportedRegime, match=r"k\^2 or \(epsilon \+ v0\)\^2 overflows"):
            secular_det_square_well(1e200, 0.5, 2e200)


class TestClosedFormSecular:
    def test_vanishes_at_reference_roots(self):
        # roots carry the 1e-10 bisection tolerance, so |f| is a few 1e-10
        for eps in WELL22_ROOTS:
            assert abs(secular_det_square_well(2.0, eps, 2.0)) < 1e-8

    def test_rejects_out_of_band(self):
        with pytest.raises(OutsideAdmissibleBand):
            secular_det_square_well(2.0, 3.0, 2.0)

    @pytest.mark.parametrize("k, epsilon, v0, half_width, cls", [
        pytest.param(2.0, 0.3, 2.0, -1.0, ConfigError, id="negative-width"),
        pytest.param(2.0, 0.3, 2.0, 0.0, ConfigError, id="zero-width"),
        pytest.param(2.0, 0.3, 2.0, math.inf, ConfigError, id="infinite-width"),
        pytest.param(2.0, 0.3, math.inf, 1.0, ConfigError, id="infinite-v0"),
        pytest.param(math.nan, 0.3, 2.0, 1.0, ConfigError, id="nan-k"),
        pytest.param(2.0, math.nan, 2.0, 1.0, ConfigError, id="nan-epsilon"),
        pytest.param(2.0, math.inf, 2.0, 1.0, ConfigError, id="infinite-epsilon"),
        pytest.param(2.0, 0.3, 1e300, 1.0, UnsupportedRegime, id="q-overflows"),
        pytest.param(2.0, 0.3, 2.0, 1e308, UnsupportedRegime, id="2Lq-overflows"),
    ])
    def test_determinant_refuses_what_it_cannot_evaluate(self, k, epsilon, v0, half_width, cls):
        # under error::RuntimeWarning: no NaN, overflow or warning is returned instead
        with pytest.raises(cls):
            secular_det_square_well(k, epsilon, v0, half_width)

    @pytest.mark.parametrize(
        "k, v0, half_width",
        [(math.nan, 2.0, 1.0), (2.0, math.nan, 1.0), (math.inf, 2.0, 1.0),
         (2.0, -math.inf, 1.0), (2.0, 2.0, -1.0), (2.0, 2.0, 0.0), (2.0, 2.0, math.nan)],
    )
    def test_rejects_non_finite_or_flat_well(self, k, v0, half_width):
        with pytest.raises(ConfigError):
            square_well_secular(k, v0, half_width)

    def test_secular_function_domain(self):
        sec = square_well_secular(2.0, 2.0)
        assert (sec.lo, sec.hi) == (0.0, 2.0)
        assert sec.lo < sec.hi
        barrier = square_well_secular(2.0, -1.0)  # binds on the mirror band
        assert (barrier.lo, barrier.hi) == (-2.0, -1.0)

    def test_sign_change_brackets_ground_state(self):
        sec = square_well_secular(2.0, 2.0)
        assert sec.f(0.2)[0] * sec.f(0.5)[0] < 0.0


class TestTransferRoute:
    def test_matches_closed_form_zero_set(self):
        rng = np.random.default_rng(42)
        config_roots = 0
        for _ in range(20):
            k = float(rng.uniform(0.5, 5.0))
            v0 = float(rng.uniform(0.5, 10.0))
            closed = find_roots(square_well_secular(k, v0))
            general = find_roots(general_secular(square_well_config(v0), k))
            assert len(closed) == len(general)
            for a, b in zip(closed, general):
                assert abs(a - b) < 1e-8
            config_roots += len(closed)
        assert config_roots > 0  # the draw actually exercised something

    @pytest.mark.parametrize("sec", [general_secular(square_well_config(2.0), 2.0), square_well_secular(2.0, 2.0)],
                             ids=["transfer", "closed-form"])
    def test_batch_matches_scalar(self, sec):
        # a float gives one-element arrays with the bits of the batch
        grid = np.linspace(0.05, 1.95, 17)
        theta, slope = sec.phase(grid)
        for i in range(grid.size):
            assert sec.phase(float(grid[i])) == ([theta[i]], [slope[i]])

    def test_zero_jump_breakpoint_is_inert(self):
        # splitting the well interior with a zero-size step changes nothing
        split = FieldConfig(
            electric=PiecewiseConstant((-1.0, 0.0, 1.0), (0.0, -2.0, -2.0, 0.0))
        )
        plain = find_roots(general_secular(square_well_config(2.0), 2.0))
        assert find_roots(general_secular(split, 2.0)) == pytest.approx(plain, abs=1e-12)

    def test_asymmetric_profile_has_real_secular(self):
        lopsided = FieldConfig(
            electric=PiecewiseConstant((-1.0, 0.5), (0.0, -3.0, -1.0))
        )
        sec = general_secular(lopsided, 2.0)
        vals = sec.f(np.linspace(sec.lo + 0.05, sec.hi - 0.05, 50))
        assert np.all(np.isreal(vals))
        assert len(find_roots(sec)) > 0

    def test_domain_from_exterior_values(self):
        lopsided = FieldConfig(
            electric=PiecewiseConstant((-1.0, 1.0), (0.5, -3.0, -0.5))
        )
        sec = general_secular(lopsided, 2.0)
        # the exteriors decay on (-1.5, 1.5), and the inner region of -3
        # oscillates only above -3 + 2
        assert sec.lo == -1.0
        assert sec.hi == pytest.approx(-0.5 + 2.0)

    def test_one_step_profile_has_no_levels(self):
        # no inner region: the band is empty and the solve returns nothing
        sec = general_secular(FieldConfig(electric=PiecewiseConstant((0.0,), (0.0, 1.0))), 2.0)
        assert not sec.lo < sec.hi
        assert find_roots(sec) == []

    def test_rejects_non_electrostatic(self):
        with pytest.raises(ConfigError):
            general_secular(FieldConfig(electric=None, magnetic=Lorentzian(-1.0)), 2.0)
        with pytest.raises(ConfigError):
            general_secular(FieldConfig(electric=Lorentzian(-2.0)), 2.0)

    @pytest.mark.parametrize("magnetic", [
        pytest.param(PiecewiseConstant((0.0,), (0.0, 1.0)), id="step"),
        pytest.param(Lorentzian(-1.0), id="lorentzian"),
        pytest.param(Lorentzian(1e-300), id="lorentzian_tiny"),
        pytest.param(square_well(1.0), id="square_well"),
        pytest.param(PiecewiseConstant((), (1.0,)), id="uniform"),
    ])
    def test_refuses_magnetic_profile(self, magnetic):
        # a magnetic profile that is not identically zero is refused under a well
        config = FieldConfig(electric=square_well(2.0), magnetic=magnetic)
        with pytest.raises(ConfigError, match="^matching handles purely electrostatic configurations$"):
            general_secular(config, 2.0)

    @pytest.mark.parametrize("magnetic", [
        pytest.param(PiecewiseConstant((-1.0, 1.0), (0.0, 0.0, 0.0)), id="step"),
        pytest.param(Lorentzian(0.0), id="lorentzian"),
        pytest.param(Lorentzian(-0.0), id="lorentzian_negative_zero"),
        pytest.param(square_well(0.0), id="square_well"),
        pytest.param(PiecewiseConstant((), (0.0,)), id="uniform"),
    ])
    def test_zero_magnetic_profile_keeps_levels(self, magnetic):
        # an identically zero magnetic profile is accepted and changes nothing
        bare = FieldConfig(electric=square_well(2.0))
        config = FieldConfig(electric=square_well(2.0), magnetic=magnetic)
        roots = find_roots(general_secular(bare, 2.0))
        assert len(roots) == len(WELL22_ROOTS)
        assert find_roots(general_secular(config, 2.0)) == roots
        eps = np.linspace(-0.5, 1.9, 7)
        for got, want in zip(general_secular(config, 2.0).phase(eps), general_secular(bare, 2.0).phase(eps)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("electric", [
        pytest.param(None, id="none"),
        pytest.param(Lorentzian(-2.0), id="lorentzian"),
        pytest.param(Lorentzian(2.0), id="lorentzian_barrier"),
        pytest.param(Lorentzian(0.0), id="lorentzian_zero"),
    ])
    def test_refuses_smooth_electric_profile(self, electric):
        # with no magnetic field to object to, the profile itself is refused
        config = FieldConfig(electric=electric, magnetic=Lorentzian(0.0))
        with pytest.raises(ConfigError, match="^matching needs a piecewise-constant profile$"):
            general_secular(config, 2.0)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_k(self, k):
        with pytest.raises(ConfigError):
            general_secular(square_well_config(2.0), k)

    @pytest.mark.parametrize(
        "k, v0, half_width, count",
        [(2.0, 2.0, 1.0, 3), (3.0, 8.0, 1.0, 5), (50.0, 120.0, 3.0, 218), (200.0, 500.0, 5.0, 1425),
         (2.0, 1e-4, 1.0, 1), (50.0, 20.0, 3.0, 94)],
    )
    def test_band_edge_levels_match_the_closed_form(self, k, v0, half_width, count):
        # (2, 1e-4) binds its level and (50, 20) its top levels within 1e-4
        # of the band edge, where a scan of the secular value lost them
        closed = find_roots(square_well_secular(k, v0, half_width))
        transfer = find_roots(general_secular(square_well_config(v0, half_width), k))
        assert len(transfer) == len(closed) == count
        np.testing.assert_allclose(transfer, closed, rtol=0.0, atol=1e-10)

    def test_negative_k_mirror(self):
        # spectrum depends on |k| for the electrostatic well
        plus = find_roots(general_secular(square_well_config(2.0), 2.0))
        minus = find_roots(general_secular(square_well_config(2.0), -2.0))
        assert minus == pytest.approx(plus, abs=1e-9)

    @pytest.mark.parametrize("k, v0, half_width", [(2.0, 1e-300, 1.0), (2.0, 2.0, 1e-300),
                                                   (5e-324, 1.0, 1.0), (2.0, 2.0, 5e-324)])
    def test_weakly_binding_square_wells_raise_by_both_routes(self, k, v0, half_width):
        # each binds a level within one double of the band edge
        with pytest.raises(UnsupportedRegime, match="within one double"):
            find_roots(square_well_secular(k, v0, half_width))
        with pytest.raises(UnsupportedRegime, match="within one double"):
            find_roots(general_secular(square_well_config(v0, half_width), k))

    def test_a_weakly_binding_piecewise_well_raises(self):
        # it binds at |k| - eps of about 2.7 v^2: 2.7e-8 at v = 1e-4, and
        # 2.7e-18 at v = 1e-9, below a double of |k| = 2
        well = lambda v: FieldConfig(electric=PiecewiseConstant((-1.0, 0.3, 1.0), (0.0, -v, -v / 2, 0.0)))
        assert len(find_roots(general_secular(well(1e-4), 2.0))) == 1
        with pytest.raises(UnsupportedRegime, match="within one double"):
            find_roots(general_secular(well(1e-9), 2.0))

    @pytest.mark.parametrize(
        "values, k, binds",
        [
            ((0.0, -1e-300, -1e-300, 0.0), 2.0, True),  # an integral that underflows a double
            ((0.5, -1.0, 2.0, 0.5), 2.0, False),  # a zero integral proves nothing
            ((0.0, -1.0, -1.0, 0.5), 2.0, False),  # and neither do unequal exteriors
            ((0.0, -1.0, -1.0, 0.0), 0.0, False),
        ],
    )
    def test_binds_by_the_weak_coupling_rule(self, values, k, binds):
        config = FieldConfig(electric=PiecewiseConstant((-1.0, 0.0, 1.0), values))
        assert general_secular(config, k).binds is binds


def scan_count(steps, values, k, points=100_000):
    """Reference level count of a piecewise well: sign changes of
    det(psi(x_R), decaying direction) on a scan refined geometrically down
    to the innermost doubles of the band, psi carried across the regions
    by the real system psi' = M psi, M = [[k, -d], [d, -k]], d = eps - v,
    and renormalized after each."""
    lo, hi = max(values[0], values[-1]) - abs(k), min(values[0], values[-1]) + abs(k)
    if not lo < hi:
        return 0
    edge = (hi - lo) * np.geomspace(1e-18, 1.0 / (points + 1), 60)
    eps = np.concatenate([lo + edge, np.linspace(lo, hi, points + 2)[1:-1], hi - edge])
    eps = np.unique(np.clip(eps, np.nextafter(lo, hi), np.nextafter(hi, lo)))  # down to the innermost doubles
    d = eps - values[0]
    p = np.sqrt(k * k - d * d)
    psi = np.array([k + p, d]) if k >= 0 else np.array([d, k - p])  # growing to the right
    for r in range(1, len(values) - 1):
        d, w = eps - values[r], steps[r] - steps[r - 1]
        m = k * k - d * d
        rate = np.sqrt(np.abs(m))
        with np.errstate(divide="ignore", invalid="ignore"):
            # exp(M w) = c I + s M, times exp(-rate w) where m > 0
            c = np.where(m > 0, 0.5 * (1 + np.exp(-2 * rate * w)), np.cos(rate * w))
            s = np.where(m > 0, (1 - np.exp(-2 * rate * w)) / (2 * rate), np.sin(rate * w) / rate)
        s = np.where(rate > 0, s, w)
        psi = c * psi + s * np.array([k * psi[0] - d * psi[1], d * psi[0] - k * psi[1]])
        psi = psi / np.hypot(*psi)
    d = eps - values[-1]
    p = np.sqrt(k * k - d * d)
    decay = np.array([d, k + p]) if k >= 0 else np.array([k - p, d])
    det = np.sign(psi[0] * decay[1] - psi[1] * decay[0])
    return int(np.count_nonzero(det[:-1] * det[1:] < 0))


@st.composite
def piecewise_wells(draw):
    """(steps, values, k): 1-4 inner regions, barriers up to 6 wide, each
    region a little wider than the one before so that no two wells are
    copies whose levels pair up within one scan cell."""
    n = draw(st.integers(1, 4))
    widths = np.array(draw(st.lists(st.floats(0.05, 6.0), min_size=n, max_size=n))) + 0.01 * np.arange(n)
    steps = tuple(np.cumsum(np.r_[-1.0, widths]).tolist())
    inner = draw(st.lists(st.floats(-30.0, 15.0), min_size=n, max_size=n))
    outer = draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
    k = draw(st.floats(0.3, 8.0)) * draw(st.sampled_from([1.0, -1.0]))
    return steps, (outer[0], *inner, outer[1]), k


class TestTransferPhase:
    """The transfer phase counts and places every level: against the closed
    form on square wells and against a dense scan on asymmetric wells."""

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.floats(-60.0, 60.0).filter(lambda k: abs(k) > 0.05),
        v0=st.one_of(st.floats(-500.0, -1e-4), st.floats(1e-4, 500.0)),
        half_width=st.floats(0.1, 10.0),
    )
    def test_square_wells_match_the_closed_form(self, k, v0, half_width):
        transfer = find_roots(general_secular(square_well_config(v0, half_width), k))
        assert len(transfer) == len(find_roots(square_well_secular(k, v0, half_width)))
        closed = find_roots(square_well_secular(k, v0, half_width))
        np.testing.assert_allclose(transfer, closed, rtol=0.0, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(well=piecewise_wells())
    @example(well=((-1.0, 0.3, 1.2), (0.0, -4.0, -2.5, 0.5), 2.0))  # TestCarry's
    @example(well=((-2.0, -0.5, 0.5, 2.0), (0.0, -5.0, 0.0, -5.0, 0.0), 2.0))  # TestEvanescentBarrier's
    @example(well=((-22.0, -20.0, 20.0, 22.0), (0.0, -60.0, 0.0, -47.0, 0.0), 40.0))  # 109 levels
    # 35 levels, two of them 3.8e-4 apart, which 20000 scan points counted as 33
    @example(well=((-1.0, 1.109375, 1.61546875, 2.6354687500000002, 6.580512929190437),
                   (0.0, 11.0, -10.875, 0.0, 14.70703125, 0.0), 6.6875))
    # equal exteriors around a step of 1e-9 bind a level within one double
    # of the band edge, which the solver refuses and the scan does not see
    @example(well=((-1.0, 0.0), (0.0, 1e-9, 0.0), 1.0))
    def test_piecewise_wells_match_a_dense_scan(self, well):
        steps, values, k = well
        count = scan_count(steps, values, k)
        try:
            roots = find_roots(general_secular(FieldConfig(electric=PiecewiseConstant(steps, values)), k))
        except UnsupportedRegime as exc:
            assert "within one double of the band edge" in str(exc)
            assert count == 0
            return
        assert len(roots) == count
        assert np.all(np.diff(roots) > 0.0)

    @settings(max_examples=40, deadline=None)
    @given(well=piecewise_wells(), scale=st.floats(0.02, 1.0) | st.floats(-1.0, -0.02))
    @example(well=((-1.0, 1.0), (0.0, -2.0, 0.0), 2.0), scale=1.0)  # lowest level 0.35 above the raised lo of 0
    @example(well=((-1.0, 0.5), (0.5, 3.0, -0.5), 2.0), scale=1.0)  # barrier only, unequal exteriors
    @example(well=((-1.0, 0.0), (0.0, 1e-9, 0.0), 1.0), scale=1.0)  # refused on both
    def test_band_keeps_every_level_of_the_exterior_window(self, well, scale):
        # scale makes wells shallow enough for the band to narrow the
        # window, and a negative one turns wells into barriers
        steps, values, k = well
        values = tuple(scale * v for v in values)
        secular = general_secular(FieldConfig(electric=PiecewiseConstant(steps, values)), k)
        lo, hi = _band(k, values)
        assert (secular.lo, secular.hi) == (lo, hi)
        outer = (values[0], values[-1])
        window = dataclasses.replace(secular, lo=max(outer) - abs(k), hi=min(outer) + abs(k))
        solved = []
        for sec in (secular, window):
            try:
                solved.append(find_roots(sec))
            except UnsupportedRegime:
                solved.append(None)
        roots, wide = solved
        assert (roots is None) == (wide is None)
        if roots is not None:
            assert len(roots) == len(wide)
            np.testing.assert_allclose(roots, wide, rtol=0.0, atol=1e-12)
            assert all(lo < root < hi for root in roots)

    @settings(max_examples=40, deadline=None)
    @given(well=piecewise_wells(), share=st.floats(0.001, 0.999))
    # 109 levels behind a barrier of kappa w = 1467
    @example(well=((-22.0, -20.0, 20.0, 22.0), (0.0, -60.0, 0.0, -47.0, 0.0), 40.0), share=0.3)
    # m = 0 in the region of value -2, and m = 1.02e-10 just past the
    # propagator's series cut, where the closed-form integral cancelled to
    # 1e-3 of the slope
    @example(well=((-1.0, 0.0, 1.0), (0.0, -4.0, -2.0, 0.0), 2.0), share=0.5)
    @example(well=((-1.0, 0.0, 1.0), (0.0, -4.0, -2.0, 0.0), 2.0), share=0.5 - 6.4e-12)
    @example(well=((-1.0, 0.3, 1.2), (0.0, -4.0, -2.5, 0.5), -2.0), share=0.4)  # k < 0
    # a band 4.4e-16 wide: no step that rounding leaves accurate fits in it
    @example(well=((-1.0, 0.0), (0.0, 0.0, 2.9999999999999996), 1.5), share=0.5)
    def test_slope_is_the_derivative_of_the_phase(self, well, share):
        # the slope summed in the walk's running scale against central
        # differences of theta at steps s and s/2, extrapolated to s^4,
        # wherever eps +- h fits in the band, h at least 1e7 spacings of eps.
        # theta bends like the square roots of eps - lo and hi - eps, where
        # differences in eps within a few h of an edge err by up to 5e-2, so
        # they are taken in phi, where eps = lo + (hi - lo) sin^2 phi
        # and theta is smooth, over the phi of the energies as a double
        # stores them.  s is the phi step of h, raised to 1e7 spacings of the
        # largest of eps, k and the values (eps - v resolves no finer), and
        # at most 0.1, where the extrapolation errs by about 2e-7, and half
        # the way to the nearer edge
        steps, values, k = well
        lo, hi = max(values[0], values[-1]) - abs(k), min(values[0], values[-1]) + abs(k)
        eps = lo + share * (hi - lo)
        h = max(1e-6 * (hi - lo), 1e7 * np.spacing(abs(eps)))
        if not lo < eps - h < eps + h < hi:
            return
        potential = PiecewiseConstant(steps, values)
        phase = lambda x: np.arctan2(np.sqrt(x - lo), np.sqrt(hi - x))
        jacobian = 2.0 * math.sqrt((eps - lo) * (hi - eps))  # d eps / d phi
        floor = 1e7 * np.spacing(max(abs(eps), abs(k), *map(abs, values))) / jacobian
        edge = 0.5 * min(phase(eps), 0.5 * math.pi - phase(eps))
        p = phase(eps) + min(max(h / jacobian, floor), 0.1, edge) * np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        e = np.where(p < 0.25 * math.pi, lo + (hi - lo) * np.sin(p) ** 2, hi - (hi - lo) * np.cos(p) ** 2)
        e[2], p = eps, phase(e)
        with np.errstate(divide="ignore", invalid="ignore"):  # m = 0 divides by zero; the kernel holds no guard
            theta, slope = _transfer_phase_slope(potential, k, e)
        derivative = (4.0 * (theta[3] - theta[1]) / (p[3] - p[1])
                      - (theta[4] - theta[0]) / (p[4] - p[0])) / 3.0 / jacobian
        assert slope[2] == pytest.approx(derivative, rel=1e-5)


def bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


class TestFastPaths:
    """A batch that holds no evanescent element skips the evanescent branch
    and its rescale, but no element's result may depend on what shares its
    batch: each energy alone gives the bits it gives in a batch that mixes
    oscillatory, evanescent, m = 0 and series-cut elements."""

    def test_propagator_entries_alone_and_in_a_mixed_batch(self):
        w = 2.0
        m = np.array([-4.0, -1e-12, 0.0, 3e-12, 2.5, -1e-11, 1e-20, 0.7, -30.0])
        entries = lambda m: [e if e is not None else np.zeros(m.shape) for e in _propagator_entries(m, w)]
        batch = entries(m)
        assert _propagator_entries(m[:1], w)[4] is None  # the oscillatory fast path
        for i in range(m.size):
            assert bits(*entries(m[i : i + 1])) == bits(*(e[i : i + 1] for e in batch))

    @pytest.mark.parametrize(
        "k, v0, half_width, eps",
        [
            # interior m > 0 below eps = 0, m = 0 at 0 and series-cut around it
            (2.0, 2.0, 1.0, [-1.5, -1e-12, 0.0, 1e-12, 0.35, 1.0, 1.9]),
            # in band the interior is oscillatory throughout; the mixed
            # elements lie below the band, where m = 0 at eps = -17
            (8.0, 25.0, 1.2, [-7.5, -1.0, 3.0, 7.9, -20.0, -17.0, -17.0 - 2e-14, -17.0 + 2e-14]),
        ],
    )
    def test_transfer_phase_alone_and_in_a_mixed_batch(self, k, v0, half_width, eps):
        well = square_well_config(v0, half_width).electric
        eps = np.array(eps)
        with np.errstate(divide="ignore", invalid="ignore"):  # m = 0 and band edges; the kernel holds no guard
            theta, slope = _transfer_phase_slope(well, k, eps)
            for i in range(eps.size):
                assert bits(*_transfer_phase_slope(well, k, eps[i : i + 1])) == bits(theta[i : i + 1], slope[i : i + 1])
