"""The vectorized float formatter against repr, and the state CSV it writes."""

import math

import numpy as np
import pytest

from diracwell import (
    QuantumLabel,
    assemble_square_well_state,
    current_density,
    find_roots,
    square_well_secular,
    state_to_csv,
)
from diracwell._floatfmt import format_rows


def reference(table) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in np.asarray(table).tolist())


def from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def neighbours(values) -> list[float]:
    """Each value and the doubles on either side of it, with both signs."""
    out = [w for v in values for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]
    return out + [-v for v in out]


class TestAgainstRepr:
    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20)
        bits = rng.integers(0, 2**64, size=49000, dtype=np.uint64, endpoint=False)
        exponents = np.array([0, 2047], dtype=np.uint64)[rng.integers(0, 2, 700)] << np.uint64(52)
        fractions = rng.integers(0, 2**52, size=700, dtype=np.uint64)  # subnormals and NaN payloads
        signs = rng.integers(0, 2, size=700, dtype=np.uint64) << np.uint64(63)
        table = from_bits(np.concatenate((bits, signs | exponents | fractions))).reshape(-1, 7)
        assert format_rows(table) == reference(table)

    def test_powers_of_two_over_the_whole_range(self):
        table = np.array([[2.0**e, -(2.0**e)] for e in range(-1074, 1024)])
        assert format_rows(table) == reference(table)

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param(neighbours([1e-5, 1e-4, 1e-3]), id="positional-from-1e-4"),
            pytest.param(neighbours([1e15, 1e16, 1e17]), id="positional-to-1e16"),
            pytest.param(neighbours([2.0**53, 2.0**52, 1.0, 0.1, 0.5]), id="whole-and-halves"),
            pytest.param(neighbours([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]), id="range-ends"),
            pytest.param(neighbours([1e100, 1e-100, 1.5e300, 1e-99, 9.99e99, 1e22, 1e23]), id="three-digit-exponents"),
            pytest.param([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan], id="zeros-inf-nan"),
        ],
    )
    def test_boundaries(self, values):
        table = np.array(values).reshape(-1, 1)
        assert format_rows(table) == reference(table)

    def test_whole_numbers_rounded_decimals_and_wide_magnitudes(self):
        rng = np.random.default_rng(21)
        tables = [np.floor(rng.random(7000) * 2.0 ** rng.integers(0, 60, 7000))]
        tables += [np.round(rng.standard_normal(700) * 1000.0, d) for d in range(8)]
        tables.append(rng.standard_normal(7000) * 10.0 ** rng.uniform(-25.0, 25.0, 7000))
        for table in tables:
            table = table.reshape(-1, 7)
            assert format_rows(table) == reference(table)

    def test_any_width_and_no_rows(self):
        values = np.random.default_rng(22).standard_normal(60)
        for width in (1, 2, 3, 60):
            assert format_rows(values.reshape(-1, width)) == reference(values.reshape(-1, width))
        assert format_rows(np.empty((0, 7))) == ""


def csv_reference(state) -> str:
    d = current_density(state)
    columns = (state.x, state.psi1.real, state.psi1.imag, state.psi2.real, state.psi2.imag, d.rho, d.j_y)
    return "x,re_psi1,im_psi1,re_psi2,im_psi2,rho,jy\n" + reference(np.column_stack(columns))


class TestStateCsv:
    # the wells of the CI verify steps; every 25th level of the 1425-level well
    @pytest.mark.parametrize(
        "k, v0, half_width",
        [(2.0, 2.0, 1.0), (3.0, 8.0, 1.0), (30.0, 40.0, 1.5), (2.0, -5.0, 1.0), (2.0, 0.0, 1.0),
         (50.0, 20.0, 3.0), (2.0, 1e-4, 1.0), (50.0, 120.0, 3.0), (200.0, 500.0, 5.0)],
    )
    def test_every_state_of_the_verify_wells(self, k, v0, half_width):
        roots = find_roots(square_well_secular(k, v0, half_width))
        for eps in roots[:: 25 if len(roots) > 1000 else 1]:
            s = assemble_square_well_state(QuantumLabel(k, eps), v0, half_width, 41)
            assert state_to_csv(s) == csv_reference(s)

    def test_a_decay_length_near_1e155(self):
        # x reaches 1.6e156 and no sample exceeds 1e-77: three-digit exponents, in several blocks
        k, v0 = 1e-155, 2.0
        s = assemble_square_well_state(QuantumLabel(k, find_roots(square_well_secular(k, v0, 1.0))[0]), v0)
        assert len(s.x) == 4001
        assert state_to_csv(s) == csv_reference(s)
