"""Potential families, their JSON form and field configurations."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracwell import (
    FieldConfig,
    Lorentzian,
    PiecewiseConstant,
    potential_from_json,
    potential_to_json,
    square_well,
)
from diracwell.core import _binds
from diracwell.errors import ConfigError


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

    @pytest.mark.parametrize("make", [
        lambda bad: PiecewiseConstant((bad,), (0.0, 1.0)),
        lambda bad: PiecewiseConstant((0.0,), (0.0, bad)),
        lambda bad: square_well(bad),
        lambda bad: square_well(1.0, half_width=bad),
    ], ids=["breakpoint", "value", "depth", "half_width"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_a_parameter_that_is_not_finite(self, make, bad):
        # a NaN or infinite step would place no breakpoint the routes can match at
        with pytest.raises(ConfigError, match="must be finite"):
            make(bad)

    def test_is_zero(self):
        assert PiecewiseConstant((0.0,), (0.0, 0.0)).is_zero()
        assert square_well(0.0).is_zero()  # its well holds -0.0
        assert not square_well(1.0).is_zero()


class TestSmoothFamilies:
    def test_lorentzian(self):
        pot = Lorentzian(-2.0)
        assert pot.evaluate(0.0) == -2.0
        assert pot.evaluate(1.0) == -1.0

    @pytest.mark.parametrize("make", [lambda bad: Lorentzian(bad)], ids=["lorentzian"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_a_parameter_that_is_not_finite(self, make, bad):
        # a NaN or infinite strength would shoot no level without a word
        with pytest.raises(ConfigError, match="must be finite"):
            make(bad)


class TestPotentialJson:
    @pytest.mark.parametrize(
        "pot",
        [
            square_well(2.0),
            PiecewiseConstant((-1.0, 0.0, 1.0), (0.0, -1.0, 2.0, 0.0)),
            square_well(-1.5, half_width=0.25),
            PiecewiseConstant((), (0.5,)),
            Lorentzian(-2.0),
            Lorentzian(3.5),
            Lorentzian(-1e-300),
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
            potential_from_json('{"family": "lorentzian"}')  # missing strength
        with pytest.raises(ConfigError, match="must be finite"):
            potential_from_json('{"family": "lorentzian", "strength": NaN}')
        # the config file's rule: a bool or a string is no number, and an
        # integer past the largest double is refused rather than overflowing
        for params in (
            {"family": "piecewise_constant", "breakpoints": [0], "values": "12"},
            {"family": "piecewise_constant", "breakpoints": {}, "values": [1]},
            {"family": "lorentzian", "strength": "-2"},
            {"family": "piecewise_constant", "breakpoints": [True], "values": [0, 1]},
            {"family": "piecewise_constant", "breakpoints": [0], "values": [0, False]},
            {"family": "piecewise_constant", "breakpoints": [10**400], "values": [0, 1]},
            {"family": "lorentzian", "strength": -(10**400)},
        ):
            with pytest.raises(ConfigError, match="^malformed parameters"):
                potential_from_json(json.dumps(params))

    def test_an_integer_is_a_number(self):
        text = '{"family": "piecewise_constant", "breakpoints": [-1, 1], "values": [0, -2, 0]}'
        assert potential_from_json(text) == square_well(2.0)
        assert potential_from_json('{"family": "lorentzian", "strength": -2}') == Lorentzian(-2.0)

    @pytest.mark.parametrize("family", ["linear", "coulomb_like", "tanh"])
    def test_refuses_a_removed_family_by_name(self, family):
        text = json.dumps({"family": family, "slope": 1.0, "strength": -1.0})
        with pytest.raises(ConfigError, match=f"^unknown potential family '{family}'$"):
            potential_from_json(text)

    def test_json_is_sorted_and_stable(self):
        text = potential_to_json(square_well(2.0))
        assert text == json.dumps(json.loads(text), sort_keys=True)


class TestFieldConfig:
    def test_needs_some_profile(self):
        with pytest.raises(ConfigError):
            FieldConfig(electric=None, magnetic=None)


def _rule_by_fractions(electric, magnetic, k):
    """The weak-coupling rule in Fraction arithmetic, as core._binds states
    it: equal exteriors, W_inf = k + a_inf != 0 and A < 2 |W_inf| |V|."""
    if any(p is not None and p.values[0] != p.values[-1] for p in (electric, magnetic)):
        return False

    def steps(p):
        return [] if p is None else [(Fraction(v), Fraction(right) - Fraction(left))
                                     for v, left, right in zip(p.values[1:-1], p.breakpoints, p.breakpoints[1:])]

    a_inf = Fraction(magnetic.values[0]) if magnetic is not None else Fraction(0)
    w_inf = Fraction(k) + a_inf
    area = sum((a - a_inf) * (2 * Fraction(k) + a + a_inf) * width for a, width in steps(magnetic))
    depth = sum((v - Fraction(electric.values[0])) * width for v, width in steps(electric))
    return w_inf != 0 and area < 2 * abs(w_inf) * abs(depth)


class TestWeakCouplingRule:
    @settings(max_examples=600, deadline=None)
    @given(data=st.data())
    def test_binds_takes_the_sign_fractions_take(self, data):
        # electric, magnetic and joint step fields over doubles of every
        # magnitude, subnormals and 1e300 widths included, and small dyadic
        # ones whose sums can cancel exactly or put k + a_inf at 0
        floats = data.draw(st.sampled_from([
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(-1e-300, 1e-300),
            st.sampled_from([0.0, -0.0, 0.25, -0.5, 1.0, 1.5, -2.0, 3.0, -4.0]),
        ]))

        def profile():
            steps = sorted(data.draw(st.lists(floats, min_size=1, max_size=5, unique=True)))
            outer = data.draw(floats)
            inner = data.draw(st.lists(floats, min_size=len(steps) - 1, max_size=len(steps) - 1))
            return PiecewiseConstant(steps, (outer, *inner, data.draw(st.one_of(st.just(outer), floats))))

        fields = data.draw(st.sampled_from(["electric", "magnetic", "both"]))
        electric = profile() if fields != "magnetic" else None
        magnetic = profile() if fields != "electric" else None
        k = data.draw(st.sampled_from([2.0, -2.0, 1e-300, -1e-300, -1e300, 0.0]))
        assert _binds(electric, magnetic, k) is _rule_by_fractions(electric, magnetic, k)

    @pytest.mark.parametrize("electric, magnetic, k, binds", [
        # the electric rule: k != 0 and a nonzero integral, whatever its sign
        (square_well(-1e-300), None, 2.0, True),
        (square_well(2.0), None, 0.0, False),
        # the magnetic rule: a step that lowers the mass |k + a| binds
        (None, PiecewiseConstant((-1.0, 1.0), (0.0, -0.5, 0.0)), 2.0, True),
        (None, PiecewiseConstant((-1.0, 1.0), (0.0, 0.5, 0.0)), 2.0, False),
        # the mass is |k + a_inf|, so k = 0 binds under a field of 0.5 ...
        (None, PiecewiseConstant((-1.0, 1.0), (0.5, 0.5 - 1e-9, 0.5)), 0.0, True),
        # ... and k + a_inf = 0 leaves no band: A is a sum of (k + a)^2 w
        (None, PiecewiseConstant((-1.0, 1.0), (-2.0, -1.5, -2.0)), 2.0, False),
        (square_well(1.0), PiecewiseConstant((-1.0, 1.0), (-2.0, -1.5, -2.0)), 2.0, False),
        # joint: A = 6 against 2 |W_inf| |V| = 4 v0, which proves nothing at equality
        (square_well(1.5), PiecewiseConstant((-1.0, 1.0), (0.0, 1.0, 0.0)), 1.0, False),
        (square_well(1.5000000000000002), PiecewiseConstant((-1.0, 1.0), (0.0, 1.0, 0.0)), 1.0, True),
        (square_well(1e-10), PiecewiseConstant((-1.0, 1.0), (0.0, 1e-12, 0.0)), 1.0, True),
        # unequal exteriors of either field prove nothing
        (square_well(2.0), PiecewiseConstant((-1.0, 1.0), (0.0, -0.5, 0.1)), 1.0, False),
        (PiecewiseConstant((-1.0, 1.0), (0.0, -2.0, 0.1)), PiecewiseConstant((-1.0, 1.0), (0.0, -0.5, 0.0)), 1.0,
         False),
    ])
    def test_binds_by_the_joint_rule(self, electric, magnetic, k, binds):
        assert _binds(electric, magnetic, k) is binds
