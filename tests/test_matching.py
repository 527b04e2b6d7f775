"""Secular functions: the closed form and the transfer-matrix route,
cross-checked against one another."""

import math

import numpy as np
import pytest

from diracwell import (
    FieldConfig,
    PiecewiseConstant,
    QuantumLabel,
    find_roots,
    general_secular,
    secular_det_general,
    secular_det_square_well,
    square_well_config,
    square_well_secular,
)
from diracwell.errors import ConfigError, OutsideAdmissibleBand, UnboundedStateRequest

# reference spectrum of the (k=2, v0=2, L=1) well, lowest first
WELL22_ROOTS = (0.35427361798250695, 1.1335605119300567, 1.9258300731147544)


class TestRegionWavenumbers:
    def test_ground_state_values(self):
        from diracwell.matching import region_wavenumbers

        p, q = region_wavenumbers(QuantumLabel(k=2.0, epsilon=WELL22_ROOTS[0]), 2.0)
        assert p == pytest.approx(1.968372475829101, abs=1e-12)
        assert q == pytest.approx(1.242016210976509, abs=1e-12)

    def test_band_violations(self):
        from diracwell.matching import region_wavenumbers

        with pytest.raises(OutsideAdmissibleBand):
            region_wavenumbers(QuantumLabel(k=2.0, epsilon=2.5), 2.0)  # no decay
        with pytest.raises(OutsideAdmissibleBand):
            region_wavenumbers(QuantumLabel(k=2.0, epsilon=-1.9), 2.0)  # no oscillation
        with pytest.raises(OutsideAdmissibleBand):
            region_wavenumbers(QuantumLabel(k=2.0, epsilon=2.0), 2.0)  # p = 0 edge
        with pytest.raises(OutsideAdmissibleBand):
            region_wavenumbers(QuantumLabel(k=2.0, epsilon=math.nan), 2.0)


class TestClosedFormSecular:
    def test_vanishes_at_reference_roots(self):
        # roots carry the 1e-10 bisection tolerance, so |f| is a few 1e-10
        for eps in WELL22_ROOTS:
            assert abs(secular_det_square_well(2.0, eps, 2.0)) < 1e-8

    def test_rejects_out_of_band(self):
        with pytest.raises(OutsideAdmissibleBand):
            secular_det_square_well(2.0, 3.0, 2.0)

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
        assert not sec.empty
        barrier = square_well_secular(2.0, -1.0)  # binds on the mirror band
        assert (barrier.lo, barrier.hi) == (-2.0, -1.0)

    def test_sign_change_brackets_ground_state(self):
        sec = square_well_secular(2.0, 2.0)
        assert float(sec(0.2)) * float(sec(0.5)) < 0.0


class TestTransferRoute:
    def test_matches_closed_form_zero_set(self):
        rng = np.random.default_rng(42)
        config_roots = 0
        for _ in range(20):
            k = float(rng.uniform(0.5, 5.0))
            v0 = float(rng.uniform(0.5, 10.0))
            closed = find_roots(square_well_secular(k, v0), scan_points=10_000)
            general = find_roots(general_secular(square_well_config(v0), k), scan_points=10_000)
            assert len(closed) == len(general)
            for a, b in zip(closed, general):
                assert abs(a - b) < 1e-8
            config_roots += len(closed)
        assert config_roots > 0  # the draw actually exercised something

    def test_batch_matches_scalar(self):
        config = square_well_config(2.0)
        grid = np.linspace(0.05, 1.95, 17)
        batch = secular_det_general(config, QuantumLabel(2.0, grid))
        for i, eps in enumerate(grid):
            assert batch[i] == pytest.approx(
                secular_det_general(config, QuantumLabel(2.0, float(eps))), rel=1e-12
            )

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
        vals = sec(np.linspace(sec.lo + 0.05, sec.hi - 0.05, 50))
        assert np.all(np.isreal(vals))
        assert len(find_roots(sec)) > 0

    def test_domain_from_exterior_values(self):
        lopsided = FieldConfig(
            electric=PiecewiseConstant((-1.0, 1.0), (0.5, -3.0, -0.5))
        )
        sec = general_secular(lopsided, 2.0)
        assert sec.lo == pytest.approx(0.5 - 2.0)
        assert sec.hi == pytest.approx(-0.5 + 2.0)

    def test_rejects_out_of_band(self):
        with pytest.raises(UnboundedStateRequest):
            secular_det_general(square_well_config(2.0), QuantumLabel(2.0, 2.5))

    def test_rejects_non_electrostatic(self):
        from diracwell import Linear, Lorentzian

        with pytest.raises(ConfigError):
            secular_det_general(
                FieldConfig(electric=None, magnetic=Linear(1.0)), QuantumLabel(2.0, 0.5)
            )
        with pytest.raises(ConfigError):
            secular_det_general(FieldConfig(electric=Lorentzian(-2.0)), QuantumLabel(2.0, 0.5))

    def test_negative_k_mirror(self):
        # spectrum depends on |k| for the electrostatic well
        plus = find_roots(general_secular(square_well_config(2.0), 2.0))
        minus = find_roots(general_secular(square_well_config(2.0), -2.0))
        assert minus == pytest.approx(plus, abs=1e-9)
