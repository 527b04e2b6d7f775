"""The shooting oracle's root kernel: its scan, several bisection levels
per batched call, and the shooting route built on it.  Every root must be
a scalar bisection's, bit for bit, however many levels a call takes."""

import dataclasses

import numpy as np
import pytest

from diracwell import (
    FieldConfig,
    PiecewiseConstant,
    QuantumLabel,
    dirac_shooting,
    find_roots,
    general_secular,
    shooting_bound_states,
    square_well_config,
    square_well_secular,
)
from diracwell import oracle
from diracwell.oracle import EDGE_MARGIN, EDGE_POINTS, _bisect, _scan_grid, _scan_roots


def scalar_bisection(f, a, b, fa, tol):
    """One bracket, one halving at a time: the steps the kernel replays."""
    while b - a > tol:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        fm = f(mid)
        if fm == 0.0:
            a = b = mid
        elif (fa < 0.0) == (fm < 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def scalar_roots(f, lo, hi, scan_points, tol):
    """Reference: the stepwise scan, then one scalar bisection per bracket."""
    grid = _scan_grid(lo, hi, scan_points, stepwise=True)
    vals = f(grid)
    roots = [float(x) for x in grid[vals == 0.0]]
    for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
        roots.append(float(scalar_bisection(f, grid[i], grid[i + 1], vals[i], tol)))
    return sorted(r for r in roots if r - lo > EDGE_MARGIN and hi - r > EDGE_MARGIN)


def old_shooting_scan(lo, hi, scan_points, edge_margin):
    """The stepwise scan shooting_bound_states built on its own before its
    root kernel existed, at any edge margin."""
    grid = np.linspace(lo, hi, scan_points + 2)[1:-1]
    cell = (hi - lo) / (scan_points + 1)
    near = min(2.0 * edge_margin / cell, 1.0) if edge_margin > 0.0 else 1.0
    offsets = cell * near ** (1.0 - np.arange(EDGE_POINTS) / EDGE_POINTS)
    low, high = np.minimum(lo + offsets, grid[0]), np.maximum(hi - offsets[::-1], grid[-1])
    return np.concatenate([low, grid, high])


BANDS = [(-2.0, 2.0), (0.0, 2.0), (-50.0, 50.0), (-2.2, -0.3), (1.9999, 2.0)]
# the margin is the constant EDGE_MARGIN; 0.05 and 1e-12 patched in check the
# geometric edge points where 2 * margin exceeds a cell or lies far below one
SCANS = [(2, 1e-6), (50, 1e-6), (500, 1e-6), (500, 0.05), (2000, 1e-6), (2000, 1e-12)]


class TestScanGrid:
    @pytest.mark.parametrize("band", BANDS)
    @pytest.mark.parametrize("scan_points, edge_margin", SCANS)
    def test_shooting_scan_is_the_shared_grid(self, band, scan_points, edge_margin, monkeypatch):
        monkeypatch.setattr(oracle, "EDGE_MARGIN", edge_margin)
        lo, hi = band
        grid = _scan_grid(lo, hi, scan_points, stepwise=True)
        np.testing.assert_array_equal(grid, old_shooting_scan(lo, hi, scan_points, edge_margin))

    @pytest.mark.parametrize("band", BANDS)
    def test_no_edge_points_is_the_uniform_scan(self, band):
        lo, hi = band
        uniform = _scan_grid(lo, hi, 150, stepwise=False)
        np.testing.assert_array_equal(uniform, np.linspace(lo, hi, 152)[1:-1])


SHOOTING_WELLS = {
    "square-2-2": (square_well_config(2.0), 2.0),
    "square-3-8": (square_well_config(8.0), 3.0),
    "negative-k": (square_well_config(11.0, 0.7), -4.0),
    "asymmetric": (FieldConfig(electric=PiecewiseConstant((-1.0, 0.2, 1.0), (0.0, -6.0, -3.0, 0.0))), 2.5),
}


class TestShootingKernel:
    @pytest.mark.parametrize("case", list(SHOOTING_WELLS))
    def test_roots_equal_scalar_bisection(self, case):
        config, k = SHOOTING_WELLS[case]
        step, tol, scan_points = 2e-3, 1e-10, 300
        shoot = lambda eps: dirac_shooting(config, QuantumLabel(k, eps), step)
        reference = scalar_roots(shoot, -abs(k), abs(k), scan_points, tol)
        assert reference
        assert shooting_bound_states(config, k, scan_points, tol, step) == reference


def kernel_roots(f, a, b, tol, budget):
    """Roots of the kernel on brackets [a, b], and its call count."""
    calls = []

    def values(x):
        calls.append(x.size)
        return f(x)

    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    roots = _bisect(values, a, b, f(a), tol, budget)
    return roots, len(calls)


ONE = np.nextafter(1.0, 2.0) - 1.0  # one double spacing at 1
# 40 brackets around the zeros of cos with ends that are not dyadic
_ZEROS = (np.arange(40) + 0.5) * np.pi
_RNG = np.random.default_rng(7)
RANDOM_A, RANDOM_B = _ZEROS - _RNG.uniform(0.01, 1.5, 40), _ZEROS + _RNG.uniform(0.01, 1.5, 40)


class TestLevelsPerCall:
    """Forcing one halving per call and leaving the depth to the budget
    must give the same bits."""

    @pytest.mark.parametrize(
        "f, a, b, tol",
        [
            # dyadic roots: some bisection midpoint hits each one exactly
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
        one, shallow_calls = kernel_roots(f, a, b, tol, budget=0)
        deep, deep_calls = kernel_roots(f, a, b, tol, budget=4096)
        np.testing.assert_array_equal(deep, one)
        scalar_f = lambda x: float(f(np.array([x]))[0])
        scalar = [scalar_bisection(scalar_f, lo, hi, scalar_f(lo), tol) for lo, hi in zip(a, b)]
        np.testing.assert_array_equal(one, scalar)
        assert deep_calls < shallow_calls

    @pytest.mark.parametrize("budget", [0, 6, 17, 18, 100, 2024])
    def test_a_call_stays_within_the_budget(self, budget):
        # six brackets: a call of d levels evaluates 6 (2^d - 1) points
        ends = np.linspace(0.5, 10.5, 7)
        sizes = []

        def values(x):
            sizes.append(x.size)
            return np.sin(x)

        _bisect(values, ends[:-1], ends[1:], np.sin(ends[:-1]), 1e-10, budget)
        assert max(sizes) <= max(budget, 6)
        assert (sizes[0] > 6) == (budget >= 18)  # two levels fit from 6 * 3 points on

    def test_transfer_route_takes_few_calls(self):
        # the phases at the levels' start points narrow every bracket once:
        # without that, Newton steps on the transfer phase, which wiggles
        # within each half-turn, took 84 calls here
        secular = general_secular(square_well_config(500.0, 5.0), 200.0)
        calls = []

        def counted(eps):
            calls.append(np.size(eps))
            return secular.phase(eps)

        assert len(find_roots(dataclasses.replace(secular, phase=counted))) == 1425
        assert len(calls) <= 16

    def test_scan_and_bisection_take_few_calls(self):
        secular = square_well_secular(3.0, 8.0, 1.2)
        calls = []

        def counted(eps):
            calls.append(np.size(eps))
            return secular.f(eps)

        roots = _scan_roots(counted, secular.lo, secular.hi, 2000, 1e-10, stepwise=True)
        assert len(roots) == 6
        assert len(calls) <= 6  # one scan, then a few calls of several levels each
        assert max(calls) == calls[0]

