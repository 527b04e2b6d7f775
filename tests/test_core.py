"""Potential families, field configurations, and the decoupled equation's
building blocks."""

import json
import math

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
    effective_energy,
    effective_potential_electric,
    potential_from_json,
    potential_to_json,
    square_well,
)
from diracwell.errors import ConfigError, DiscontinuityPoint, SingularPoint


class TestPiecewiseConstant:
    def test_square_well_values(self):
        well = square_well(2.0)
        assert well.breakpoints == (-1.0, 1.0)
        assert well.values == (0.0, -2.0, 0.0)
        assert well.evaluate(0.0) == -2.0
        assert well.evaluate(5.0) == 0.0
        assert well.evaluate(-5.0) == 0.0

    def test_right_limit_at_step(self):
        well = square_well(2.0)
        # value on the right side of each breakpoint
        assert well.evaluate(-1.0) == -2.0
        assert well.evaluate(1.0) == 0.0

    def test_vectorized_evaluate(self):
        well = square_well(3.0, half_width=0.5)
        xs = np.array([-2.0, -0.25, 0.25, 2.0])
        np.testing.assert_allclose(well.evaluate(xs), [0.0, -3.0, -3.0, 0.0])

    def test_derivative_zero_between_steps(self):
        well = square_well(2.0)
        assert well.derivative(0.5) == 0.0
        np.testing.assert_allclose(well.derivative(np.array([-3.0, 0.0, 3.0])), 0.0)

    def test_derivative_raises_on_step(self):
        well = square_well(2.0)
        with pytest.raises(DiscontinuityPoint):
            well.derivative(1.0)
        with pytest.raises(DiscontinuityPoint):
            well.derivative(np.array([0.0, -1.0]))

    def test_validation(self):
        with pytest.raises(ConfigError):
            PiecewiseConstant((0.0,), (1.0,))  # lengths off by two
        with pytest.raises(ConfigError):
            PiecewiseConstant((1.0, 0.0), (0.0, 1.0, 0.0))  # not increasing
        with pytest.raises(ConfigError):
            PiecewiseConstant((0.0, math.inf), (0.0, 1.0, 0.0))
        for half_width in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="half_width"):
                square_well(1.0, half_width=half_width)

    def test_is_zero(self):
        assert PiecewiseConstant((0.0,), (0.0, 0.0)).is_zero()
        assert not square_well(1.0).is_zero()


class TestSmoothFamilies:
    def test_linear(self):
        assert Linear(1.0).evaluate(0.5) == 0.5
        assert Linear(2.5).derivative(-3.0) == 2.5
        assert Linear(0.0).is_zero()

    def test_lorentzian(self):
        pot = Lorentzian(-2.0)
        assert pot.evaluate(0.0) == -2.0
        assert pot.evaluate(1.0) == -1.0
        # derivative matches a central difference
        h = 1e-6
        fd = (pot.evaluate(0.7 + h) - pot.evaluate(0.7 - h)) / (2 * h)
        assert pot.derivative(0.7) == pytest.approx(fd, abs=1e-8)

    def test_tanh(self):
        pot = Tanh(1.5)
        assert pot.evaluate(0.0) == 0.0
        assert pot.evaluate(20.0) == pytest.approx(1.5)
        assert pot.derivative(0.0) == 1.5

    def test_coulomb_singularity(self):
        bare = CoulombLike(1.0)
        with pytest.raises(SingularPoint):
            bare.evaluate(0.0)
        with pytest.raises(SingularPoint):
            bare.derivative(np.array([1.0, 0.0]))
        assert bare.evaluate(2.0) == 0.5

    def test_coulomb_cutoff_clamps(self):
        reg = CoulombLike(1.0, cutoff=0.1)
        assert reg.evaluate(0.0) == 10.0
        assert reg.evaluate(0.05) == 10.0
        assert reg.evaluate(0.5) == 2.0
        assert reg.derivative(0.05) == 0.0
        with pytest.raises(DiscontinuityPoint):
            reg.derivative(0.1)
        with pytest.raises(ConfigError):
            CoulombLike(1.0, cutoff=-0.1)

    @pytest.mark.parametrize("make", [
        lambda bad: Linear(bad),
        lambda bad: Lorentzian(bad),
        lambda bad: Tanh(bad),
        lambda bad: CoulombLike(bad, cutoff=0.1),
        lambda bad: CoulombLike(-1.0, cutoff=abs(bad)),
    ], ids=["linear", "lorentzian", "tanh", "coulomb_strength", "coulomb_cutoff"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_a_parameter_that_is_not_finite(self, make, bad):
        # a NaN or infinite slope, strength or cutoff would shoot no level
        # without a word, or fail later with a message about the grid
        with pytest.raises(ConfigError, match="must be finite"):
            make(bad)


class TestPotentialJson:
    @pytest.mark.parametrize(
        "pot",
        [
            square_well(2.0),
            PiecewiseConstant((-1.0, 0.0, 1.0), (0.0, -1.0, 2.0, 0.0)),
            Linear(0.5),
            CoulombLike(-1.0),
            CoulombLike(-1.0, cutoff=0.2),
            Lorentzian(-2.0),
            Tanh(3.0),
        ],
    )
    def test_round_trip(self, pot):
        assert potential_from_json(potential_to_json(pot)) == pot

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            potential_from_json("not json")
        with pytest.raises(ConfigError):
            potential_from_json('{"no_family": 1}')
        with pytest.raises(ConfigError):
            potential_from_json('{"family": "cubic"}')
        with pytest.raises(ConfigError):
            potential_from_json('{"family": "linear"}')  # missing slope
        with pytest.raises(ConfigError, match="must be finite"):
            potential_from_json('{"family": "lorentzian", "strength": NaN}')

    def test_json_is_sorted_and_stable(self):
        text = potential_to_json(square_well(2.0))
        assert text == json.dumps(json.loads(text), sort_keys=True)


class TestFieldConfig:
    def test_needs_some_profile(self):
        with pytest.raises(ConfigError):
            FieldConfig(electric=None, magnetic=None)


class TestReducedSystem:
    def test_effective_potential_square_well(self):
        well = square_well(2.0)
        assert effective_potential_electric(well, 1.0, 0.0) == pytest.approx(-8.0)
        assert effective_potential_electric(well, 1.0, 3.0) == 0.0

    def test_effective_potential_imaginary_part(self):
        # i v' contributes the imaginary part for a smooth profile
        val = effective_potential_electric(Tanh(1.0), 0.0, 0.0)
        assert val == pytest.approx(1j)

    def test_effective_energy(self):
        assert effective_energy(QuantumLabel(k=2.0, epsilon=0.0)) == -4.0
        assert effective_energy(QuantumLabel(k=1.0, epsilon=1.0)) == 0.0
        assert effective_energy(QuantumLabel(k=2.0, epsilon=0.354274)) == pytest.approx(
            -3.874490, abs=1e-5
        )

