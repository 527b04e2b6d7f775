"""Acceptance battery.

One test per shipped claim, each printing a single PASS/FAIL line with the
measured numbers so the battery reads as a checklist.  Tolerances and time
budgets are part of the claims and are asserted, not advisory.
"""

import math
import time

import numpy as np
import pytest

from diracwell import (
    QuantumLabel,
    assemble_square_well_state,
    branch_cut,
    current_density,
    equation_residuals,
    find_roots,
    general_secular,
    inner_product,
    landau_levels_magnetic,
    landau_levels_proportional,
    parameter_grid,
    probability_density,
    proportional_oscillator_levels,
    pt_eigenvalue,
    second_order_residuals,
    shooting_bound_states,
    square_well_config,
    square_well_secular,
    sweep_k,
    sweep_v0,
)


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def deep_sweep():
    t0 = time.perf_counter()
    branches = sweep_v0(3.0, parameter_grid(0.0, 8.0, 0.01))
    shallow = sweep_v0(2.0, parameter_grid(0.0, 2.0, 0.01))
    elapsed = time.perf_counter() - t0
    return branches, shallow, elapsed


@pytest.fixture(scope="module")
def state_families():
    families = []
    for k, v0 in ((2.0, 2.0), (3.0, 8.0)):
        roots = find_roots(square_well_secular(k, v0))
        states = [
            assemble_square_well_state(QuantumLabel(k=k, epsilon=e), v0) for e in roots
        ]
        families.append(((k, v0), states))
    return families


def test_criterion_01_reference_spectrum(capsys):
    t0 = time.perf_counter()
    roots = find_roots(square_well_secular(2.0, 2.0, 1.0))
    elapsed = time.perf_counter() - t0
    targets = (0.354274, 1.13356, 1.92583)
    ok = len(roots) == 3 and all(
        abs(r - t) < 1e-4 for r, t in zip(roots, targets)
    ) and elapsed < 1.0
    worst = max(abs(r - t) for r, t in zip(roots, targets)) if len(roots) == 3 else math.inf
    report(
        capsys, 1, ok,
        f"k=2 v0=2 energies {[round(r, 6) for r in roots]}, "
        f"max deviation {worst:.2e}, {elapsed:.3f}s",
    )


def test_criterion_02_state_count(capsys):
    t0 = time.perf_counter()
    roots = find_roots(square_well_secular(3.0, 8.0))
    elapsed = time.perf_counter() - t0
    ok = len(roots) == 5 and elapsed < 1.0
    report(capsys, 2, ok, f"k=3 v0=8 holds {len(roots)} bound states, {elapsed:.3f}s")


def test_criterion_03_collapse_count(capsys, deep_sweep):
    branches, shallow, elapsed = deep_sweep
    deep_hits = [
        b.termination[0]
        for b in branches
        if b.termination is not None
        and b.termination[1] == "epsilon=-k"
        and b.termination[0] < 8.0
    ]
    shallow_hits = [
        b for b in shallow
        if b.termination is not None and b.termination[1] == "epsilon=-k"
    ]
    ok = len(deep_hits) == 2 and len(shallow_hits) == 0 and elapsed < 30.0
    report(
        capsys, 3, ok,
        f"k=3 collapses before v0=8 at {[round(v, 6) for v in sorted(deep_hits)]}, "
        f"k=2 collapses before v0=2: {len(shallow_hits)}, sweeps took {elapsed:.2f}s",
    )


def test_criterion_04_cross_sweep_consistency(capsys, deep_sweep):
    branches, _, _ = deep_sweep
    cut_v = branch_cut(branches, 8.0)
    k_branches = sweep_k(8.0, parameter_grid(0.5, 4.0, 0.05))
    cut_k = branch_cut(k_branches, 3.0)
    ok = len(cut_v) == len(cut_k) and all(
        abs(a - b) < 1e-6 for a, b in zip(cut_v, cut_k)
    )
    worst = (
        max(abs(a - b) for a, b in zip(cut_v, cut_k))
        if cut_v and len(cut_v) == len(cut_k)
        else math.inf
    )
    report(
        capsys, 4, ok,
        f"v0=8 cut ({len(cut_v)} states) vs k=3 cut ({len(cut_k)} states), "
        f"max deviation {worst:.2e}",
    )


def test_criterion_05_oracle_equivalence(capsys):
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    worst = 0.0
    mismatched = []
    for _ in range(20):
        k = float(rng.uniform(0.5, 5.0))
        v0 = float(rng.uniform(0.5, 10.0))
        config = square_well_config(v0)
        closed = find_roots(square_well_secular(k, v0))
        general = find_roots(general_secular(config, k))
        shot = shooting_bound_states(config, k)
        if not (len(closed) == len(general) == len(shot)):
            mismatched.append((k, v0, len(closed), len(general), len(shot)))
            continue
        for a, b, c in zip(closed, general, shot):
            worst = max(worst, abs(a - b), abs(a - c))
    elapsed = time.perf_counter() - t0
    ok = not mismatched and worst < 1e-5 and elapsed < 60.0
    report(
        capsys, 5, ok,
        f"20 random wells, three routes, max root deviation {worst:.2e}, "
        f"count mismatches {mismatched}, {elapsed:.2f}s",
    )


def test_criterion_06_pt_eigenvalues(capsys, state_families):
    worst = 0.0
    total = 0
    for _, states in state_families:
        for s in states:
            lam = pt_eigenvalue(s)
            worst = max(worst, min(abs(lam - 1j), abs(lam + 1j)))
            total += 1
    ok = worst < 1e-8
    report(
        capsys, 6, ok,
        f"{total} states, max distance of PT eigenvalue from +/-i is {worst:.2e}",
    )


def test_criterion_07_orthonormality(capsys, state_families):
    worst = 0.0
    for (k, v0), states in state_families:
        gram = np.array([[inner_product(a, b) for b in states] for a in states])
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(states))))))
    ok = worst < 1e-8
    report(capsys, 7, ok, f"max |Gram - identity| over both families {worst:.2e}")


def test_criterion_08_equation_residuals(capsys, state_families):
    worst = 0.0
    for _, states in state_families:
        for s in states:
            for fd in (False, True):
                worst = max(worst, equation_residuals(s, grid_derivatives=fd).max_abs)
                worst = max(worst, second_order_residuals(s, grid_derivatives=fd).max_abs)
    ok = worst < 1e-6
    report(
        capsys, 8, ok,
        f"first- and second-order residuals, exact and stencil derivatives, "
        f"max {worst:.2e}",
    )


def test_criterion_09_dispersive_levels(capsys):
    beta, k = 1.0, 2.0
    worst = own = 0.0
    for alpha in (0.0, 0.3, 0.6, 0.9):
        mu_grid = proportional_oscillator_levels(alpha, beta, 6)
        stretch = math.sqrt(1.0 - alpha * alpha)
        for n in range(6):
            # the oracle itself, on its own scale: mu_n = 2 n beta s, s = sqrt(1 - alpha^2)
            exact = 2.0 * n * beta * stretch
            own = max(own, abs(float(mu_grid[n]) - exact) / max(beta * stretch, exact))
            if alpha == 0.0:
                formula = landau_levels_magnetic(beta, n)
            else:
                formula = landau_levels_proportional(alpha, beta, k, n)
            # the n = 0 level maps through sqrt(mu): the oracle's mu0 of about
            # 2.7e-13 beta sqrt(1 - alpha^2), where the exact value is 0, reads
            # as the 4.3e-7 this claim prints at beta = 1, growing like sqrt(beta)
            shift = math.sqrt(max(float(mu_grid[n]), 0.0)) * stretch
            mapped = (-alpha * k + shift, -alpha * k - shift)
            for f, g in zip(formula, mapped):
                worst = max(worst, abs(f - g) / max(1.0, abs(f)))
    ok = worst < 1e-5 and own <= 1e-10
    report(
        capsys, 9, ok,
        f"levels n<=5 at alpha in (0, 0.3, 0.6, 0.9) vs grid oracle, "
        f"max relative deviation {worst:.2e}; oracle vs 2 n beta s {own:.2e} of its scale",
    )


def test_criterion_10_density_contracts(capsys, state_families):
    worst_norm = 0.0
    worst_bound = -math.inf
    negative = 0
    nonzero_jx = 0
    total = 0
    for _, states in state_families:
        for s in states:
            d = current_density(s)
            rho = probability_density(s).rho
            negative += int(np.any(rho < 0.0))
            nonzero_jx += int(np.any(d.j_x != 0.0))
            worst_norm = max(worst_norm, abs(s.norm - 1.0))
            worst_bound = max(worst_bound, float(np.max(np.abs(d.j_y) - d.rho)))
            total += 1
    ok = (
        negative == 0
        and nonzero_jx == 0
        and worst_norm < 1e-8
        and worst_bound <= 1e-12
    )
    report(
        capsys, 10, ok,
        f"{total} states: rho >= 0, j_x identically 0, max |norm - 1| {worst_norm:.2e}, "
        f"max |j_y| - rho {worst_bound:.2e}",
    )
