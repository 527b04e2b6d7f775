"""The shooting oracle's one root solver, the Anderson-Bjorck secant of
oracle._anderson_bjorck: on the uniform scan of a smooth profile's
determinant, where its roots must be a scalar Anderson-Bjorck secant's bit
for bit, and on the phase crossings of a stepwise profile, bracketed by the
cells of one first call on oracle.PHASE_GRID points of the band.  The
phase kernel, spectrum._levels_by_row, must give the levels of its eager
reference bit for bit, and each route its pinned number of phase calls."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracwell import (
    FieldConfig,
    Lorentzian,
    PiecewiseConstant,
    QuantumLabel,
    dirac_shooting,
    find_roots,
    general_secular,
    shooting_bound_states,
    square_well_config,
    square_well_secular,
)
from diracwell import closed_form, oracle
from diracwell.errors import UnsupportedRegime
from diracwell.matching import _band, _square_well_phase_slope
from diracwell.oracle import _anderson_bjorck, _phase_roots, _scan_grid, _scan_roots
from diracwell.spectrum import DEFAULT_ROOT_TOL, NEWTON_CALLS, _level_ranges, _levels_by_row, _narrowed
from test_matching import piecewise_wells


def scalar_anderson_bjorck(f, a, b, fa, fb, tol):
    """One bracket, one point at a time: the steps the kernel takes.  An
    end kept twice in a row is scaled by 1 - f_new / f_replaced, or halved
    where that is not positive."""
    calls = 1  # the call that found the bracket
    kept = 0  # the end the last step kept: -1 for a, 1 for b
    while b - a > tol and np.nextafter(a, b) < b:
        x = min(max(a - fa * (b - a) / (fb - fa), a + 0.45 * tol), b - 0.45 * tol)
        if not (a < x < b and calls < oracle.SECANT_CALLS):
            x = 0.5 * (a + b)
        fx = f(x)
        calls += 1
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            if kept > 0:
                m = 1.0 - fx / fa
                fb *= m if m > 0.0 else 0.5
            a, fa, kept = x, fx, 1
        else:
            if kept < 0:
                m = 1.0 - fx / fb
                fa *= m if m > 0.0 else 0.5
            b, fb, kept = x, fx, -1
    return 0.5 * (a + b)


def scalar_roots(f, lo, hi, scan_points, tol):
    """Reference: the uniform scan, then one scalar Anderson-Bjorck secant per
    sign-changing cell; every root is kept, however near an edge."""
    grid = _scan_grid(lo, hi, scan_points)
    vals = f(grid)
    roots = [float(x) for x in np.unique(grid[vals == 0.0])]
    for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
        roots.append(float(scalar_anderson_bjorck(f, grid[i], grid[i + 1], vals[i], vals[i + 1], tol)))
    return sorted(roots)


ONE = np.nextafter(1.0, 2.0) - 1.0  # one double spacing at 1
BANDS = [(-2.0, 2.0), (0.0, 2.0), (-50.0, 50.0), (-2.2, -0.3), (1.9999, 2.0)]
# scan points, and the distance of the planted zeros from each edge: a
# cell and more, about a cell, and far below one
SCANS = [(2, 1e-6), (50, 1e-6), (500, 1e-6), (500, 0.05), (2000, 1e-6), (2000, 1e-12)]


class TestScanGrid:
    @pytest.mark.parametrize("band", BANDS)
    @pytest.mark.parametrize("scan_points, distance", SCANS)
    def test_shooting_scan_is_the_shared_grid(self, band, scan_points, distance):
        # the smooth scan evaluates the uniform grid first, none of it on an
        # edge, and returns the reference's roots: every zero its cells
        # bracket, however near an edge
        lo, hi = band
        zeros = np.array([lo + 0.5 * distance, lo + 2.0 * distance, 0.5 * (lo + hi),
                          hi - 2.0 * distance, hi - 0.5 * distance])
        f = lambda x: np.prod(np.subtract.outer(x, zeros), axis=-1)
        calls = []

        def values(x):
            calls.append(x)
            return f(x)

        roots = _scan_roots(values, lo, hi, scan_points, 1e-10)
        grid = np.linspace(lo, hi, scan_points + 2)[1:-1]
        np.testing.assert_array_equal(calls[0], grid)
        assert np.all((lo < calls[0]) & (calls[0] < hi))
        assert roots == scalar_roots(f, lo, hi, scan_points, 1e-10)
        for z in zeros:
            cell = np.searchsorted(grid, z)
            if 0 < cell < grid.size and np.sum((grid[cell - 1] < zeros) & (zeros < grid[cell])) == 1:
                assert min(abs(r - z) for r in roots) <= 1e-10

    @pytest.mark.parametrize("band", BANDS)
    def test_no_edge_points_is_the_uniform_scan(self, band):
        lo, hi = band
        uniform = _scan_grid(lo, hi, 150)
        np.testing.assert_array_equal(uniform, np.linspace(lo, hi, 152)[1:-1])

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0 + 4 * ONE), (-1.0 - 3 * ONE, -1.0)])
    def test_a_zero_on_the_edge_of_a_narrow_band_is_no_root(self, lo, hi):
        # uniform points a few doubles apart round onto the edges; clipped
        # to the innermost doubles, they never meet a zero on an edge
        grid = _scan_grid(lo, hi, 150)
        assert np.all((lo < grid) & (grid < hi))
        assert _scan_roots(lambda x: (x - lo) * (x - hi), lo, hi, 150, 1e-10) == []

    def test_tolerance_below_double_spacing_terminates(self):
        sec = square_well_secular(2.0, 2.0)
        tiny = _scan_roots(sec.f, sec.lo, sec.hi, 2000, 1e-300)
        assert len(tiny) == 3
        np.testing.assert_allclose(tiny, _scan_roots(sec.f, sec.lo, sec.hi, 2000, 1e-10), rtol=0.0, atol=1e-10)


# config, k and shooting step
SHOOTING_WELLS = {
    "square-2-2": (square_well_config(2.0), 2.0, 2e-3),
    "square-3-8": (square_well_config(8.0), 3.0, 2e-3),
    "negative-k": (square_well_config(11.0, 0.7), -4.0, 2e-3),
    "asymmetric": (FieldConfig(electric=PiecewiseConstant((-1.0, 0.2, 1.0), (0.0, -6.0, -3.0, 0.0))), 2.5,
                   2e-3),
    "lorentzian": (FieldConfig(electric=Lorentzian(-2.0)), 2.0, 0.02),
}


class TestShootingKernel:
    @pytest.mark.parametrize("case", list(SHOOTING_WELLS))
    def test_roots_equal_scalar_bisection(self, case):
        # a smooth profile's roots are the scan's under the scalar Anderson-Bjorck
        # secant, bit for bit; a stepwise profile's phase crossings are the
        # same zeros of its determinant
        config, k, step = SHOOTING_WELLS[case]
        tol, scan_points = 1e-10, 300
        shoot = lambda eps: dirac_shooting(config, QuantumLabel(k, eps), step)
        reference = scalar_roots(shoot, -abs(k), abs(k), scan_points, tol)
        assert reference
        roots = shooting_bound_states(config, k, scan_points, tol, step)
        if oracle._is_stepwise(config.electric):
            assert len(roots) == len(reference)
            np.testing.assert_allclose(roots, reference, rtol=0.0, atol=tol)
        else:
            assert roots == reference

    def test_a_smooth_determinant_does_not_depend_on_the_batch(self):
        # the march's blocks are laid out in steps alone, so an energy's
        # determinant is the same alone and among 300 others
        config, k, step = SHOOTING_WELLS["lorentzian"]
        batch = np.linspace(-abs(k), abs(k), 302)[1:-1]
        together = dirac_shooting(config, QuantumLabel(k, batch), step)
        for i in range(0, 300, 7):
            assert dirac_shooting(config, QuantumLabel(k, float(batch[i])), step) == together[i]
            assert dirac_shooting(config, QuantumLabel(k, batch[i : i + 1]), step)[0] == together[i]


SCAN_POINTS = 2000


class TestBatchedKernel:
    """The solver moves every bracket of the scan at once; every root must
    still be the scalar Anderson-Bjorck secant's, bit for bit."""

    @pytest.mark.parametrize("k,v0,half_width", [(2, 2, 1), (3, 8, 1), (-4, 11, 0.7), (50, 120, 3)])
    def test_roots_equal_the_scalar_secant(self, k, v0, half_width):
        sec = square_well_secular(k, v0, half_width)
        scalar = lambda eps: sec.f(eps).reshape(np.shape(eps))  # a float's one-element array, as a scalar
        reference = scalar_roots(scalar, sec.lo, sec.hi, SCAN_POINTS, 1e-10)
        assert _scan_roots(sec.f, sec.lo, sec.hi, SCAN_POINTS, 1e-10) == reference

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.floats(-15.0, 15.0).filter(lambda k: abs(k) > 0.1),
        v0=st.floats(0.0, 40.0),
        half_width=st.floats(0.2, 3.0),
        tol=st.sampled_from([1e-10, 1e-7, 1e-4]),
    )
    def test_every_root_sits_in_a_sign_changing_bracket(self, k, v0, half_width, tol):
        sec = square_well_secular(k, v0, half_width)
        for r in _scan_roots(sec.f, sec.lo, sec.hi, SCAN_POINTS, tol):
            # the final bracket lies on the scan, inside the innermost doubles
            probes = np.clip([r - 0.5 * tol, r + 0.5 * tol],
                             np.nextafter(sec.lo, sec.hi), np.nextafter(sec.hi, sec.lo))
            left, right = sec.f(probes)
            assert sec.f(r) == 0.0 or left * right < 0.0


# 40 brackets around the zeros of cos with ends that are not dyadic
_ZEROS = (np.arange(40) + 0.5) * np.pi
_RNG = np.random.default_rng(7)
RANDOM_A, RANDOM_B = _ZEROS - _RNG.uniform(0.01, 1.5, 40), _ZEROS + _RNG.uniform(0.01, 1.5, 40)


class TestLevelsPerCall:
    """Moving every bracket once per call must give a scalar Anderson-Bjorck
    secant's bits."""

    @pytest.mark.parametrize(
        "f, a, b, tol",
        [
            # dyadic roots: some midpoint or secant point hits each one exactly
            (lambda x: x - 0.375, [0.0], [1.0], 1e-10),
            (lambda x: np.sign(x - 0.8125), [0.0], [1.0], 1e-300),
            (lambda x: x - 2.0**-20, [0.0, -1.0], [1.0, 3.0], 1e-12),
            # down to adjacent doubles and a few doubles wide
            (lambda x: x - 1.0 - ONE / 2, [1.0, 1.0], [1.0 + ONE, 1.0 + 5 * ONE], 1e-300),
            (lambda x: x**3 - 2.0, [1.0, 0.5, -3.0], [2.0, 1.5, 4.0], 1e-300),
            (np.cos, [0.1, 4.0, 7.0], [3.0, 5.0, 9.0], 1e-300),
            (np.cos, [0.1, 4.0, 7.0], [3.0, 5.0, 9.0], 1e-10),
            (np.cos, RANDOM_A, RANDOM_B, 1e-300),
        ],
    )
    def test_roots_do_not_depend_on_the_depth(self, f, a, b, tol):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        roots = _anderson_bjorck(f, a, b, f(a), f(b), 0.0, tol)
        scalar_f = lambda x: float(f(np.array([x]))[0])
        scalar = [scalar_anderson_bjorck(scalar_f, lo, hi, scalar_f(lo), scalar_f(hi), tol)
                  for lo, hi in zip(a, b)]
        np.testing.assert_array_equal(roots, scalar)

    @pytest.mark.parametrize("brackets", [0, 6, 17, 18, 100, 2024])
    def test_a_call_stays_within_the_budget(self, brackets):
        # a call evaluates one point inside each live bracket: brackets 3
        # wide around zeros of sin, solved to 1e-10
        lo = np.pi * np.arange(brackets) + 0.5
        points = []

        def values(x):
            points.append(x)
            return np.sin(x)

        roots = _anderson_bjorck(values, lo, lo + 3.0, np.sin(lo), np.sin(lo + 3.0), 0.0, 1e-10)
        np.testing.assert_allclose(roots, np.pi * np.arange(1, brackets + 1), rtol=0.0, atol=1e-10)
        sizes = [x.size for x in points]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[:1] == ([brackets] if brackets else [])
        for x in points:
            owner = np.floor((x - 0.5) / np.pi)
            assert np.all(x - 0.5 - np.pi * owner < 3.0)  # inside a bracket
            assert np.unique(owner).size == x.size  # and one per bracket
        # halving to tol took 35 calls, the secant point unclipped 19
        assert len(sizes) <= 7

    @pytest.mark.parametrize("lo, hi", [(-2.0, 2.0), (-2.0, -2.0 + 1e-15), (1.0, 1.0)])
    def test_nothing_to_solve_takes_at_most_the_band_end_call(self, lo, hi):
        # no bracket: no call at all; theta within (0, pi) on the band: no
        # call after the first, on the band's grid of PHASE_GRID points
        def refuse(x):
            raise AssertionError(f"a call on {x.size} points")

        empty = np.empty(0)
        assert _anderson_bjorck(refuse, empty, empty, empty, empty, 0.0, 1e-10).size == 0
        sizes = []

        def theta(eps):
            sizes.append(eps.size)
            assert len(sizes) == 1, "a call after the band's grid"
            return 1.0 + 0.1 * eps

        assert _phase_roots(theta, lo, hi, 1e-10) == []
        assert sizes in ([], [oracle.PHASE_GRID])

    def test_stepwise_shooting_takes_few_calls(self, monkeypatch):
        # the phase on the band's grid, then Anderson-Bjorck steps on every
        # level at once; the scan and the replayed bisection took 32 calls
        # on 46197 energies here
        k, v0, half_width = 200.0, 500.0, 5.0
        step = 0.02 / math.sqrt((k + v0) ** 2 - k * k)
        calls = counted_shooter(monkeypatch)
        assert len(shooting_bound_states(square_well_config(v0, half_width), k, step=step)) == 1425
        assert len(calls) <= 8
        assert sum(calls) <= 12 * 1425

    # (k, v0, half_width) and the calls it takes; (50, 20, 3) has a level
    # just above its interior threshold |k| - v0, where theta is flat and
    # then rises steeply
    @pytest.mark.parametrize("k, v0, half_width, budget",
                             [(2, 2, 1, 6), (3, 8, 1, 5), (50, 20, 3, 28), (2, 1e-4, 1, 9)])
    def test_stepwise_shooting_stays_within_its_budget(self, monkeypatch, k, v0, half_width, budget):
        # the step the benchmark's routes take: the RK4 error grows as
        # (q h)^4 with the deepest interior wavenumber q
        step = min(1e-3, 0.02 / math.sqrt((abs(k) + v0) ** 2 - k * k))
        calls = counted_shooter(monkeypatch)
        shot = shooting_bound_states(square_well_config(v0, half_width), k, step=step)
        closed = find_roots(square_well_secular(k, v0, half_width))
        assert len(shot) == len(closed)
        np.testing.assert_allclose(shot, closed, rtol=0.0, atol=1e-5)
        assert calls[0] == oracle.PHASE_GRID
        assert len(calls) <= budget

    def test_scan_and_bisection_take_few_calls(self):
        # one scan, then Anderson-Bjorck steps on every cell at once:
        # halving the cells to tol took 1 + 25 calls
        secular = square_well_secular(3.0, 8.0, 1.2)
        calls = []

        def counted(eps):
            calls.append(np.size(eps))
            return secular.f(eps)

        roots = _scan_roots(counted, secular.lo, secular.hi, 2000, 1e-10)
        assert len(roots) == 6
        assert len(calls) == 5
        assert max(calls) == calls[0]


def counted_shooter(monkeypatch) -> list:
    """Wrap oracle._shooter so that each call of a shooter it builds
    appends its number of energies to the returned list."""
    calls = []
    shooter = oracle._shooter

    def counting(*args):
        shoot = shooter(*args)

        def counted(eps):
            calls.append(np.size(eps))
            return shoot(eps)

        return counted

    monkeypatch.setattr(oracle, "_shooter", counting)
    return calls


def phase_grid(lo, hi):
    """The points of _phase_roots' first call: the band's innermost doubles
    and uniform points between them."""
    return np.linspace(np.nextafter(lo, hi), np.nextafter(hi, lo), oracle.PHASE_GRID)


class TestGridStart:
    """Each crossing starts from the grid cell of the first call that holds
    its target, and is found exactly once."""

    LO, HI, TOL = -2.0, 2.0, 1e-10

    def solve(self, theta):
        sizes = []

        def counted(eps):
            sizes.append(np.size(eps))
            return theta(eps)

        roots = _phase_roots(counted, self.LO, self.HI, self.TOL)
        assert sizes[0] == oracle.PHASE_GRID
        return roots, sizes

    def test_the_first_call_is_the_band_grid(self):
        grid = phase_grid(self.LO, self.HI)
        seen = []

        def theta(eps):
            seen.append(eps)
            return 1.0 + 0.1 * eps

        assert _phase_roots(theta, self.LO, self.HI, self.TOL) == []
        np.testing.assert_array_equal(seen[0], grid)
        assert grid[0] == np.nextafter(self.LO, self.HI) and grid[-1] == np.nextafter(self.HI, self.LO)

    def test_a_target_on_a_grid_point_closes_at_once(self):
        # theta is exactly pi at grid point 20: its bracket closes there,
        # with no call after the first
        at = phase_grid(self.LO, self.HI)[20]
        roots, sizes = self.solve(lambda eps: math.pi + 0.5 * (eps - at))
        assert roots == [at]
        assert sizes == [oracle.PHASE_GRID]

    def test_three_crossings_in_one_cell(self):
        # theta climbs by 3 pi inside the cell between grid points 30 and
        # 31, linearly, so each crossing is known in closed form
        grid = phase_grid(self.LO, self.HI)
        a, b = grid[30], grid[31]
        theta = lambda eps: 0.5 + 0.01 * eps + 3.0 * math.pi * np.clip((eps - a) / (b - a), 0.0, 1.0)
        roots, _ = self.solve(theta)
        exact = [a + (n * math.pi - 0.5 - 0.01 * a) / (0.01 + 3.0 * math.pi / (b - a)) for n in (1, 2, 3)]
        assert len(roots) == 3
        assert roots == sorted(roots)
        np.testing.assert_allclose(roots, exact, rtol=0.0, atol=self.TOL)
        assert all(a < r < b for r in roots)

    def test_rounding_that_is_not_monotone_across_a_cell(self):
        # theta rounds to a hair above pi at grid point 10 and a hair below
        # at 11, then climbs on: the one crossing of pi is found once, in
        # the first cell whose right end reaches pi
        grid = phase_grid(self.LO, self.HI)
        knots = [grid[0], grid[9], grid[10], grid[11], grid[12], grid[-1]]
        values = [1.0, math.pi - 0.1, math.pi + 1e-15, math.pi - 1e-15, math.pi + 0.1, 4.0]
        theta = lambda eps: np.interp(eps, knots, values)
        assert theta(grid[11]) < math.pi < theta(grid[10])
        roots, _ = self.solve(theta)
        assert len(roots) == 1
        assert grid[9] < roots[0] <= grid[10]
        assert abs(theta(np.array(roots))[0] - math.pi) < 1e-9


def eager_levels_by_row(phase, lo, hi, binds):
    """Reference for spectrum._levels_by_row: its Newton loop with eager
    compaction, where a level leaves the batch at the call where it
    closes, and every mask is tested by any() or all()."""
    live, sign, u_lo, u_hi, th_lo, th_hi, first, count = _level_ranges(phase, lo, hi, binds)
    at = np.repeat(np.arange(live.size), count)
    n = first[at] + np.arange(at.size) - np.repeat(np.cumsum(count) - count, count)
    rows, s, target = live[at], sign[at], 0.5 * math.pi + n * math.pi
    a, b = u_lo[at], u_hi[at]
    x = a + (target - th_lo[at]) / (th_hi[at] - th_lo[at]) * (b - a)
    width = reach = np.spacing(np.maximum(np.abs(lo), np.abs(hi))[rows])
    root, slope_at = np.empty(at.size), np.empty(at.size)
    todo, calls = np.arange(at.size), 0
    mirrored = bool((sign < 0.0).any())
    with np.errstate(divide="ignore", invalid="ignore"):
        while todo.size:
            if calls < NEWTON_CALLS:
                inside = (a < x) & (x < b)
                if not inside.all():
                    x = np.where(inside, x, 0.5 * (a + b))
            else:
                x = 0.5 * (a + b)
            theta, slope = phase(rows, s * x if mirrored else x)
            calls += 1
            f = theta - target
            if mirrored:
                slope = s * slope
            a, b = np.where(f <= 0.0, x, a), np.where(f >= 0.0, x, b)
            if calls == 1:
                a, b = _narrowed(rows, x, theta, target, a, b)
            done = b - a <= width
            step = -f / slope
            stretch = np.abs(step) < reach
            if stretch.any():
                x = x + np.where(stretch, np.copysign(reach, step), step)
                reach = np.where(stretch, 2.0 * reach, reach)
            else:
                x = x + step
            if done.any():
                root[todo[done]], slope_at[todo[done]] = 0.5 * (a + b)[done], slope[done]
                keep = ~done
                todo, rows, s, target, a, b, x, width, reach = (
                    v[keep] for v in (todo, rows, s, target, a, b, x, width, reach)
                )
    blur = np.spacing(np.abs(0.5 * math.pi + n * math.pi)) / slope_at
    blurred = ~(blur <= DEFAULT_ROOT_TOL)
    if blurred.any():
        raise UnsupportedRegime(
            f"phase rounding moves {np.count_nonzero(blurred)} level(s) by up to "
            f"{np.max(blur[blurred]):.3g}, more than {DEFAULT_ROOT_TOL:g}"
        )
    rows = live[at]
    if mirrored:
        root = sign[at] * root
        n = np.where(sign[at] > 0.0, n, -n - 1)
    order = np.lexsort((root, rows))
    return rows[order], n[order], root[order]


def square_well_rows(k, v0, half_width):
    """(phase, lo, hi, binds) of the square wells (k[r], v0[r]), as
    spectrum._square_well_levels hands them to the kernel."""
    k, v0 = np.broadcast_arrays(np.atleast_1d(np.asarray(k, dtype=float)), np.asarray(v0, dtype=float))
    return (lambda rows, eps: _square_well_phase_slope(k[rows], eps, v0[rows], half_width),
            *_band(k, (0.0, -v0, 0.0)), (k != 0.0) & (v0 != 0.0))


def assert_same_levels(phase, lo, hi, binds):
    """The kernel's (row, n, root) arrays are its eager reference's, bit for
    bit, or both refuse the rows with the same message."""
    try:
        eager = eager_levels_by_row(phase, lo, hi, binds)
    except UnsupportedRegime as refusal:
        with pytest.raises(UnsupportedRegime) as raised:
            _levels_by_row(phase, lo, hi, binds)
        assert str(raised.value) == str(refusal)
        return
    lazy = _levels_by_row(phase, lo, hi, binds)
    for mine, theirs in zip(lazy, eager):
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


class TestLazyCompaction:
    """A level that closes is frozen, evaluated only inside its closed
    bracket, until at most half the batch is open: no open level's iterate
    and no root may change."""

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.floats(-60.0, 60.0),
        v0=st.floats(-500.0, 500.0),
        half_width=st.floats(0.1, 10.0),
    )
    def test_square_wells(self, k, v0, half_width):
        assert_same_levels(*square_well_rows(k, v0, half_width))

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.floats(-20.0, 20.0),
        v_top=st.floats(0.1, 80.0),
        points=st.integers(2, 150),
        half_width=st.floats(0.2, 4.0),
    )
    def test_depth_sweeps_through_mirrored_barrier_rows(self, k, v_top, points, half_width):
        # rows from a barrier of -v_top to a well of v_top: the sign products
        # run on every call, and barrier levels close beside well levels
        assert_same_levels(*square_well_rows(k, np.linspace(-v_top, v_top, points), half_width))

    @settings(max_examples=25, deadline=None)
    @given(
        v0=st.floats(-80.0, 80.0),
        k_top=st.floats(0.1, 30.0),
        points=st.integers(2, 150),
        half_width=st.floats(0.2, 4.0),
    )
    def test_momentum_sweeps(self, v0, k_top, points, half_width):
        assert_same_levels(*square_well_rows(np.linspace(-k_top, k_top, points), v0, half_width))

    @settings(max_examples=30, deadline=None)
    @given(well=piecewise_wells())
    def test_piecewise_wells_by_the_transfer_phase(self, well):
        steps, values, k = well
        secular = general_secular(FieldConfig(electric=PiecewiseConstant(steps, values)), k)
        assert_same_levels(lambda rows, eps: secular.phase(eps), np.array([secular.lo]),
                           np.array([secular.hi]), secular.binds)

    @pytest.mark.parametrize("v0", [500.0, -500.0])
    def test_the_deepest_anchor(self, v0):
        # (200, 500, 5) holds 1425 levels, and its mirrored barrier as many
        assert_same_levels(*square_well_rows(200.0, v0, 5.0))


def counted_phase(secular):
    """secular with its phase counting its calls, and the list it appends to."""
    calls = []

    def phase(eps):
        calls.append(np.size(eps))
        return secular.phase(eps)

    return dataclasses.replace(secular, phase=phase), calls


class TestRouteCalls:
    # (k, v0, half_width) and the phase calls of the closed form in the
    # batched kernel, the transfer walk and stepwise shooting at the routes'
    # step, as eager compaction took them: lazy compaction may add none.
    # Last, the scalar phase evaluations of find_roots on the closed form:
    # two band ends and each level's own steps, or the band ends alone for
    # a well of more than SCALAR_LEVELS levels, which the batch solves
    @pytest.mark.parametrize("well, pinned", [
        ((2.0, 2.0, 1.0), (7, 8, 6, 18)),
        ((3.0, 8.0, 1.0), (7, 9, 5, 29)),
        ((20.0, 50.0, 2.5), (8, 13, 8, 2)),
    ])
    def test_each_route_takes_its_pinned_calls(self, monkeypatch, well, pinned):
        k, v0, half_width = well
        closed, closed_calls = counted_phase(square_well_secular(k, v0, half_width))  # its phase records no well
        transfer, transfer_calls = counted_phase(general_secular(square_well_config(v0, half_width), k))
        shot_calls = counted_shooter(monkeypatch)
        scalar_calls = []
        phase = closed_form._phase
        monkeypatch.setattr(closed_form, "_phase", lambda *args: scalar_calls.append(1) or phase(*args))
        find_roots(square_well_secular(k, v0, half_width))
        find_roots(closed)
        find_roots(transfer)
        step = min(1e-3, 0.02 / math.sqrt((abs(k) + v0) ** 2 - k * k))
        shooting_bound_states(square_well_config(v0, half_width), k, step=step)
        assert (len(closed_calls), len(transfer_calls), len(shot_calls), len(scalar_calls)) == pinned
