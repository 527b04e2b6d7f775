"""The scalar kernel of closed_form against the batched kernel,
spectrum._levels_by_row, on one row: bit for bit and refusal for refusal
where numpy's float64 kernels are libm's (numpy without AVX-512, in a
fresh interpreter), within a few spacings of the band's larger end at the
host's own dispatch, and the routing of find_roots by SCALAR_LEVELS."""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracwell import closed_form, find_roots, matching, square_well_secular
from diracwell.closed_form import SCALAR_LEVELS
from diracwell.errors import SolverError
from diracwell.landau import MAX_GRID_POINTS
from test_cli import NO_X86_V4, src_env


def scalar_kernel(k, v0, half_width=1.0):
    """The levels of closed_form's scalar kernel, for a well of any count."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(closed_form, "SCALAR_LEVELS", MAX_GRID_POINTS)
        return closed_form.square_well_levels(k, v0, half_width)


def batched_kernel(k, v0, half_width=1.0):
    """The levels of spectrum._levels_by_row on the well's one row: a copy
    whose phase does not record the well, so find_roots solves that phase."""
    secular = square_well_secular(k, v0, half_width)
    return find_roots(dataclasses.replace(secular, phase=secular.phase.__wrapped__))


KERNELS = pytest.mark.parametrize("solve", [scalar_kernel, batched_kernel], ids=["scalar", "batched"])


def outcome(solve, well):
    """The roots' bits as hex, or the refusal's class and text."""
    try:
        return [r.hex() for r in solve(*well)]
    except SolverError as refusal:
        return type(refusal).__name__, str(refusal)


# the pinned single wells, the CI verify wells, and a refusal of each kind:
# a level within a double of the edge, phase rounding, a phase that reaches
# past distinct doubles or is not finite, too many levels, tied levels
PINNED_WELLS = [
    (2.0, 2.0, 1.0), (3.0, 8.0, 1.0), (30.0, 40.0, 1.5), (2.0, -5.0, 1.0), (2.0, 0.0, 1.0),
    (50.0, 20.0, 3.0), (2.0, 1e-4, 1.0), (50.0, 120.0, 3.0), (200.0, 500.0, 5.0),
    (12.0, 35.0, 2.0), (2.0, 1e4, 1.0), (20.0, 1e4, 2.0), (-3.0, 8.0, 1.0), (-2.0, -5.0, 1.0),
    (1.0, 1e-10, 1.0), (2.0, 1e8, 1.0), (2.0, 1e17, 1.0), (2.0, 1e200, 1.0), (1e300, 1e300, 1.0),
    (1e7, 1e7, 1.0), (1e10, 1e-2, 1.0),
]


def drawn_wells(seed=52):
    """3,300 seeded wells: like cli-cold's, barriers and wells of either
    sign of k, k = 0, v0 = 0, weakly bound ones (some refused), and wells
    of about SCALAR_LEVELS levels."""
    rng = np.random.default_rng(seed)

    def u(lo, hi, n):
        return rng.uniform(lo, hi, n).tolist()

    wells = list(zip(u(1.0, 4.0, 1500), u(1.0, 8.0, 1500), u(0.5, 1.5, 1500)))
    wells += zip(u(-30.0, 30.0, 800), u(-100.0, 100.0, 800), u(0.1, 3.0, 800))
    wells += zip([0.0] * 100, u(-50.0, 50.0, 100), u(0.1, 3.0, 100))
    wells += zip(u(-30.0, 30.0, 100), [0.0] * 100, u(0.1, 3.0, 100))
    weak = rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-12.0, -2.0, 300)
    wells += zip(u(0.2, 3.0, 300), weak.tolist(), u(0.2, 3.0, 300))
    return wells + near_the_limit(rng, 500)


def near_the_limit(rng, n):
    """n wells of about SCALAR_LEVELS levels: the band (-k, k) holds about
    2L (q(k) - q(-k)) / pi of them."""
    k = rng.uniform(3.0, 15.0, n)
    v0 = k * rng.uniform(2.5, 4.0, n)
    spread = np.sqrt((v0 + k) ** 2 - k * k) - np.sqrt((v0 - k) ** 2 - k * k)
    half_width = (SCALAR_LEVELS + rng.uniform(-3.0, 3.0, n)) * math.pi / (2.0 * spread)
    return list(zip(k.tolist(), v0.tolist(), half_width.tolist()))


def mismatches(wells) -> list[str]:
    """The wells whose two outcomes differ, one line each."""
    lines = []
    for well in wells:
        scalar, batched = outcome(scalar_kernel, well), outcome(batched_kernel, well)
        if scalar != batched:
            lines.append(f"{well}: scalar {scalar}, batched {batched}")
    return lines


class TestAgainstTheBatchedKernel:
    def test_the_draw_holds_counts_just_below_and_above_the_limit(self):
        counts = {len(scalar_kernel(*well)) for well in near_the_limit(np.random.default_rng(52), 500)}
        assert {SCALAR_LEVELS - 1, SCALAR_LEVELS, SCALAR_LEVELS + 1} <= counts

    def test_bit_for_bit_and_refusal_for_refusal_without_avx512(self):
        # numpy's AVX-512 arctan2 is not libm's; without it every float64
        # kernel the phase uses is, and the two kernels take the same steps
        script = ("import json, sys\n"
                  f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
                  "import test_closed_form as t\n"
                  "wells = t.PINNED_WELLS + t.drawn_wells()\n"
                  "print(json.dumps([len(wells), t.mismatches(wells)]))\n")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**src_env(), "NPY_DISABLE_CPU_FEATURES": NO_X86_V4})
        assert result.returncode == 0, result.stderr
        count, differ = json.loads(result.stdout.splitlines()[-1])
        assert count >= 3000
        assert differ == []

    @settings(max_examples=100, deadline=None)
    @given(
        k=st.floats(-60.0, 60.0),
        v0=st.floats(-500.0, 500.0),
        half_width=st.floats(0.1, 10.0),
    )
    def test_within_8_spacings_at_the_hosts_dispatch(self, k, v0, half_width):
        # at default dispatch numpy's arctan2 may differ from libm's in the
        # last bit: a level moves by at most 8 spacings of the band's larger
        # end (5 measured over 4,515 wells), its count and refusal do not
        scalar, batched = outcome(scalar_kernel, (k, v0, half_width)), outcome(batched_kernel, (k, v0, half_width))
        if isinstance(scalar, tuple) or isinstance(batched, tuple):
            assert scalar == batched
            return
        assert len(scalar) == len(batched)
        secular = square_well_secular(k, v0, half_width)
        spacing = np.spacing(max(abs(secular.lo), abs(secular.hi)))
        for a, b in zip(scalar, batched):
            assert abs(float.fromhex(a) - float.fromhex(b)) <= 8.0 * spacing

    def test_a_misleading_slope_still_terminates(self, monkeypatch):
        # a slope 1000 times too steep creeps toward every root; after
        # NEWTON_CALLS evaluations a level still open is bisected
        calls = []
        phase = closed_form._phase

        def steep(*args):
            calls.append(1)
            theta, slope = phase(*args)
            return theta, 1e3 * slope

        monkeypatch.setattr(closed_form, "_phase", steep)
        roots = closed_form.square_well_levels(3.0, 8.0, 1.0)
        np.testing.assert_allclose(roots, batched_kernel(3.0, 8.0), rtol=0.0, atol=1e-14)
        assert 5 * closed_form.NEWTON_CALLS < len(calls) <= 5 * (closed_form.NEWTON_CALLS + 60) + 2


class TestRouting:
    """find_roots solves a square well of at most SCALAR_LEVELS levels
    with the scalar kernel, on its recorded (k, v0, half_width), and a
    deeper one, or any well without a record, with the batch."""

    @pytest.mark.parametrize("offset", [0, 1])
    def test_the_limit_picks_the_kernel(self, monkeypatch, offset):
        rng = np.random.default_rng(52)
        well = next(w for w in near_the_limit(rng, 500) if len(scalar_kernel(*w)) == SCALAR_LEVELS + offset)
        secular = square_well_secular(*well)
        scalar_calls, batched_calls = [], []
        scalar, batched = closed_form._phase, matching._square_well_phase_slope
        monkeypatch.setattr(closed_form, "_phase", lambda *args: scalar_calls.append(1) or scalar(*args))
        monkeypatch.setattr(matching, "_square_well_phase_slope",
                            lambda *args: batched_calls.append(1) or batched(*args))
        assert len(find_roots(secular)) == SCALAR_LEVELS + offset
        # above the limit the scalar kernel counts the levels from its two band ends alone
        assert (len(scalar_calls) == 2) == (offset > 0)
        assert (len(batched_calls) > 0) == (offset > 0)

    def test_a_copy_is_solved_on_its_own_phase(self):
        secular = square_well_secular(3.0, 8.0, 1.0)
        assert secular.phase.square_well == (3.0, 8.0, 1.0)
        # one that keeps the phase keeps the record, as the benchmark's tracer copies it
        kept = dataclasses.replace(secular, f=lambda eps: secular.f(eps))
        assert find_roots(kept) == closed_form.square_well_levels(3.0, 8.0, 1.0)
        calls = []
        copy = dataclasses.replace(secular, phase=lambda eps: calls.append(1) or secular.phase(eps))
        assert find_roots(copy) == batched_kernel(3.0, 8.0)
        assert calls
        # a phase of no levels is solved as such, not as the original well
        empty = dataclasses.replace(secular, phase=lambda eps: (np.zeros_like(eps), np.ones_like(eps)), binds=False)
        assert find_roots(empty) == []

    def test_the_scalar_kernel_returns_none_above_its_limit(self, monkeypatch):
        monkeypatch.setattr(closed_form, "SCALAR_LEVELS", 4)
        assert closed_form.square_well_levels(3.0, 8.0, 1.0) is None
        monkeypatch.setattr(closed_form, "SCALAR_LEVELS", 5)
        assert len(closed_form.square_well_levels(3.0, 8.0, 1.0)) == 5

    @pytest.mark.parametrize("k, v0, half_width, message", [
        (math.inf, 2.0, 1.0, "k must be finite"),
        (2.0, math.nan, 1.0, "v0 must be finite"),
        (2.0, 2.0, 0.0, "half_width must be finite and positive, got 0.0"),
    ])
    def test_a_well_is_refused_with_the_texts_of_square_well_secular(self, k, v0, half_width, message):
        for solve in (closed_form.square_well_levels, square_well_secular):
            with pytest.raises(ValueError) as info:
                solve(k, v0, half_width)
            assert str(info.value) == message

    @pytest.mark.parametrize("divisor", [0.0, -0.0])
    @pytest.mark.parametrize("dividend", [1.0, -2.5, 0.0, -0.0, math.inf, math.nan])
    def test_a_division_by_zero_is_numpys(self, dividend, divisor):
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.float64(dividend) / np.float64(divisor)
        assert np.array_equal(closed_form._div(dividend, divisor), want, equal_nan=True)
        assert math.copysign(1.0, closed_form._div(dividend, divisor)) == math.copysign(1.0, want) or math.isnan(want)
