"""The vectorized float formatter against repr, and the state CSV it writes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracwell import (
    QuantumLabel,
    assemble_square_well_state,
    current_density,
    find_roots,
    square_well_secular,
    state_to_csv,
)
from diracwell import _floatfmt
from diracwell._floatfmt import format_rows


def reference(table) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in np.asarray(table).tolist())


def from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def bits_of(value: float) -> int:
    return int(np.float64(value).view(np.uint64))


def random_bit_patterns() -> np.ndarray:
    """7100 rows of 7: random bits, then subnormals and NaN payloads of either sign."""
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2**64, size=49000, dtype=np.uint64, endpoint=False)
    exponents = np.array([0, 2047], dtype=np.uint64)[rng.integers(0, 2, 700)] << np.uint64(52)
    fractions = rng.integers(0, 2**52, size=700, dtype=np.uint64)
    signs = rng.integers(0, 2, size=700, dtype=np.uint64) << np.uint64(63)
    return from_bits(np.concatenate((bits, signs | exponents | fractions))).reshape(-1, 7)


def main_pass_flags(table) -> tuple[np.ndarray, np.ndarray]:
    """The bits and exponent fields of the lanes that _shortest leaves to _exact."""
    bits = np.ascontiguousarray(table).ravel().view(np.uint64) & np.uint64(2**63 - 1)
    biased = (bits >> np.uint64(52)).astype(np.intp)
    lanes = np.flatnonzero(_floatfmt._shortest(bits, biased)[2])
    return bits[lanes], biased[lanes]


@pytest.fixture
def exact_calls(monkeypatch) -> list:
    """The (bits, biased) of each _floatfmt._exact call."""
    calls, exact = [], _floatfmt._exact
    monkeypatch.setattr(_floatfmt, "_exact", lambda bits, biased: calls.append((bits, biased)) or exact(bits, biased))
    return calls


def neighbours(values) -> list[float]:
    """Each value and the doubles on either side of it, with both signs."""
    out = [w for v in values for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]
    return out + [-v for v in out]


class TestAgainstRepr:
    def test_random_bit_patterns(self):
        table = random_bit_patterns()
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

    @settings(max_examples=200, deadline=None)
    @given(
        width=st.integers(1, 7),
        patterns=st.lists(st.integers(0, 2**64 - 1) | st.floats().map(bits_of), max_size=70),
    )
    def test_any_bit_patterns(self, width, patterns):
        table = from_bits(patterns[: len(patterns) // width * width]).reshape(-1, width)
        assert format_rows(table) == reference(table)

    def test_any_width_and_no_rows(self):
        values = np.random.default_rng(22).standard_normal(60)
        for width in (1, 2, 3, 60):
            assert format_rows(values.reshape(-1, width)) == reference(values.reshape(-1, width))
        assert format_rows(np.empty((0, 7))) == ""


class TestBlocks:
    """format_rows lays a table out in blocks of whole rows, but decides the
    lanes that take _exact or repr once per table."""

    @pytest.mark.parametrize("rows", [1, 3])
    def test_blocks_of_few_rows(self, monkeypatch, rows):
        # 7100 rows: rare and repr lanes in many blocks, and with 3 rows a last block of 2
        monkeypatch.setattr(_floatfmt, "_BLOCK", 7 * rows)
        table = random_bit_patterns()
        for table in (table, np.empty((0, 7)), table[:1]):
            assert format_rows(table) == reference(table)
            assert format_rows(table, "a,b\n") == "a,b\n" + reference(table)  # the head goes first, once

    def test_exact_runs_once_on_the_lanes_the_main_pass_flags(self, monkeypatch, exact_calls):
        monkeypatch.setattr(_floatfmt, "_BLOCK", 21)
        table = random_bit_patterns()
        assert format_rows(table) == reference(table)
        bits, biased = main_pass_flags(table)
        assert len(exact_calls) == 1 and bits.size > 0
        assert np.array_equal(exact_calls[0][0], bits) and np.array_equal(exact_calls[0][1], biased)

    def test_exact_does_not_run_without_a_flagged_lane(self, exact_calls):
        table = np.array([[0.1, 0.3, 1.5, -2.5, 123.456, 0.0, 1.0, 5e-324, math.inf, math.nan]])
        assert main_pass_flags(table)[0].size == 0
        for table in (table, np.empty((0, 7))):
            assert format_rows(table) == reference(table)
            assert format_rows(table, "head\n") == "head\n" + reference(table)
        assert exact_calls == []


class TestDragonboxBranches:
    """Doubles that take each exact branch of _floatfmt._exact, where the
    64 x 128-bit product alone cannot decide the digits (found by search)."""

    @pytest.mark.parametrize(
        "value",
        [
            pytest.param(9.13702642520349e19, id="r=delta-x-odd-keeps-the-longer-divisor"),
            pytest.param(2.180531196762579e16, id="r=delta-x-integer-keeps-the-longer-divisor"),
            pytest.param(2.0879241281035732e16, id="r=delta-x-even-takes-the-shorter"),
            pytest.param(1.6635925660168042e19, id="divisible-parity-differs-rounds-down"),
            pytest.param(14837195230288.312, id="divisible-tie-odd-rounds-down-to-even"),
            pytest.param(16727685388345.438, id="divisible-tie-even-is-kept"),
            pytest.param(9.106815851342486e18, id="divisible-parity-equal-is-kept"),
            pytest.param(2.6402534135098148e16, id="integer-z-at-the-excluded-right-end"),
            # the low word of z that skips its lowest limb product misses a carry
            pytest.param(1e23, id="short-low-word-misses-a-carry"),
            pytest.param(5e22, id="short-low-word-misses-a-carry-at-5e22"),
        ],
    )
    def test_branch(self, value):
        table = np.array(neighbours([value])).reshape(-1, 1)
        assert format_rows(table) == reference(table)

    def test_powers_of_two_take_repr(self):
        # the shorter interval below a power of two goes to the per-value fallback
        values = [1.0, 0.5, 2.0, 1024.0, 2.0**-1022, 2.0**-1074, 2.0**1023, 2.0**-100, 2.0**60]
        table = np.array([[v, -v] for v in values])
        assert format_rows(table) == reference(table)


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

    def test_a_4001_point_state_in_seven_blocks(self, exact_calls):
        k, v0 = 3.0, 8.0
        s = assemble_square_well_state(QuantumLabel(k, find_roots(square_well_secular(k, v0, 1.0))[4]), v0)
        assert len(s.x) * 7 > 6 * _floatfmt._BLOCK  # seven blocks, the last one partial
        assert state_to_csv(s) == csv_reference(s)
        assert len(exact_calls) == 1

    def test_a_decay_length_near_1e155(self):
        # x reaches 1.6e156 and no sample exceeds 1e-77: three-digit exponents, in several blocks
        k, v0 = 1e-155, 2.0
        s = assemble_square_well_state(QuantumLabel(k, find_roots(square_well_secular(k, v0, 1.0))[0]), v0)
        assert len(s.x) == 4001
        assert state_to_csv(s) == csv_reference(s)
