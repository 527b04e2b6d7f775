"""The shooting oracle's root kernels: the uniform scan and lockstep
bisection of a smooth profile's determinant, whose roots must be a scalar
bisection's bit for bit, and the phase crossings of a stepwise profile."""

import dataclasses
import math

import numpy as np
import pytest

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
from diracwell import oracle
from diracwell.oracle import _bisect, _scan_grid, _scan_roots


def scalar_bisection(f, a, b, fa, tol):
    """One bracket, one halving at a time: the steps the kernel takes."""
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
    """Reference: the uniform scan, then one scalar bisection per bracket,
    roots within the module's EDGE_MARGIN of an edge dropped."""
    grid = _scan_grid(lo, hi, scan_points)
    vals = f(grid)
    roots = [float(x) for x in grid[vals == 0.0]]
    for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
        roots.append(float(scalar_bisection(f, grid[i], grid[i + 1], vals[i], tol)))
    margin = oracle.EDGE_MARGIN
    return sorted(r for r in roots if r - lo > margin and hi - r > margin)


BANDS = [(-2.0, 2.0), (0.0, 2.0), (-50.0, 50.0), (-2.2, -0.3), (1.9999, 2.0)]
# the margin is the constant EDGE_MARGIN; 0.05 and 1e-12 patched in check
# margins wider than a scan cell and far below one
SCANS = [(2, 1e-6), (50, 1e-6), (500, 1e-6), (500, 0.05), (2000, 1e-6), (2000, 1e-12)]


class TestScanGrid:
    @pytest.mark.parametrize("band", BANDS)
    @pytest.mark.parametrize("scan_points, edge_margin", SCANS)
    def test_shooting_scan_is_the_shared_grid(self, band, scan_points, edge_margin, monkeypatch):
        # the smooth scan evaluates the uniform grid first, and keeps the
        # reference's roots on it: none within the margin of an edge
        monkeypatch.setattr(oracle, "EDGE_MARGIN", edge_margin)
        lo, hi = band
        zeros = np.array([lo + 0.5 * edge_margin, lo + 2.0 * edge_margin, 0.5 * (lo + hi),
                          hi - 2.0 * edge_margin, hi - 0.5 * edge_margin])
        f = lambda x: np.prod(np.subtract.outer(x, zeros), axis=-1)
        calls = []

        def values(x):
            calls.append(x)
            return f(x)

        roots = _scan_roots(values, lo, hi, scan_points, 1e-10)
        np.testing.assert_array_equal(calls[0], np.linspace(lo, hi, scan_points + 2)[1:-1])
        assert roots == scalar_roots(f, lo, hi, scan_points, 1e-10)
        assert all(r - lo > edge_margin and hi - r > edge_margin for r in roots)

    @pytest.mark.parametrize("band", BANDS)
    def test_no_edge_points_is_the_uniform_scan(self, band):
        lo, hi = band
        uniform = _scan_grid(lo, hi, 150)
        np.testing.assert_array_equal(uniform, np.linspace(lo, hi, 152)[1:-1])


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
        # a smooth profile's roots are the scan's, bit for bit; a stepwise
        # profile's phase crossings are the same zeros of its determinant
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


ONE = np.nextafter(1.0, 2.0) - 1.0  # one double spacing at 1
# 40 brackets around the zeros of cos with ends that are not dyadic
_ZEROS = (np.arange(40) + 0.5) * np.pi
_RNG = np.random.default_rng(7)
RANDOM_A, RANDOM_B = _ZEROS - _RNG.uniform(0.01, 1.5, 40), _ZEROS + _RNG.uniform(0.01, 1.5, 40)


class TestLevelsPerCall:
    """Halving every bracket once per call must give a scalar bisection's
    bits."""

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
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        roots = _bisect(f, a, b, f(a), tol)
        scalar_f = lambda x: float(f(np.array([x]))[0])
        scalar = [scalar_bisection(scalar_f, lo, hi, scalar_f(lo), tol) for lo, hi in zip(a, b)]
        np.testing.assert_array_equal(roots, scalar)

    @pytest.mark.parametrize("brackets", [0, 6, 17, 18, 100, 2024])
    def test_a_call_stays_within_the_budget(self, brackets):
        # a call evaluates one midpoint per live bracket: brackets 3 wide
        # around zeros of sin halve 35 times down to 1e-10
        lo = np.pi * np.arange(brackets) + 0.5
        sizes = []

        def values(x):
            sizes.append(x.size)
            return np.sin(x)

        roots = _bisect(values, lo, lo + 3.0, np.sin(lo), 1e-10)
        np.testing.assert_allclose(roots, np.pi * np.arange(1, brackets + 1), rtol=0.0, atol=1e-10)
        assert sizes == ([brackets] * 35 if brackets else [])

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

    def test_stepwise_shooting_takes_few_calls(self, monkeypatch):
        # the phase at the band's ends, then Illinois steps on every level
        # at once; the scan and the replayed bisection took 32 calls on
        # 46197 energies here
        k, v0, half_width = 200.0, 500.0, 5.0
        step = 0.02 / math.sqrt((k + v0) ** 2 - k * k)
        calls = []
        shooter = oracle._shooter

        def counted_shooter(*args):
            shoot = shooter(*args)

            def counted(eps):
                calls.append(np.size(eps))
                return shoot(eps)

            return counted

        monkeypatch.setattr(oracle, "_shooter", counted_shooter)
        assert len(shooting_bound_states(square_well_config(v0, half_width), k, step=step)) == 1425
        assert len(calls) <= 12
        assert sum(calls) <= 12 * 1425

    def test_scan_and_bisection_take_few_calls(self):
        # one scan, then one call per halving of the scan's cells to tol
        secular = square_well_secular(3.0, 8.0, 1.2)
        calls = []

        def counted(eps):
            calls.append(np.size(eps))
            return secular.f(eps)

        roots = _scan_roots(counted, secular.lo, secular.hi, 2000, 1e-10)
        assert len(roots) == 6
        cell = (secular.hi - secular.lo) / 2001
        assert len(calls) == 1 + math.ceil(math.log2(cell / 1e-10))
        assert max(calls) == calls[0]
