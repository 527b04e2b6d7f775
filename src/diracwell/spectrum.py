"""Root finding, spectral sweeps, and closed-form dispersive levels.

Square-well bound states live strictly inside the admissible band
(max(-|k|, |k| - v0), |k|): outside it either the exterior stops decaying
or the interior stops oscillating.  Roots of a secular function are
bracketed on a uniform scan of the band and polished by bisection, all
brackets in lockstep; a sweep in k or v0 solves every parameter value in
one such batched pass, chains the per-parameter roots into branches and
flags the points where a branch runs into the lower band edge and
disappears (a state collapsing into the continuum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidLevel, UnsupportedRegime
from .matching import (
    SecularFunction,
    _check_well,
    _square_well_secular_value,
    square_well_secular,
)

__all__ = [
    "AdmissibleBand",
    "SpectrumBranch",
    "admissible_interval",
    "find_roots",
    "count_bound_states",
    "sweep_k",
    "sweep_v0",
    "branch_cut",
    "landau_levels_magnetic",
    "landau_levels_proportional",
    "parameter_grid",
    "spectrum_to_csv",
    "branches_to_csv",
    "branches_to_json_payload",
]

DEFAULT_SCAN_POINTS = 2000
DEFAULT_ROOT_TOL = 1e-10
EDGE_MARGIN = 1e-6
COLLAPSE_TOL = 1e-6
SCAN_BLOCK = 8192  # energies per scan evaluation; bounds the grid of long sweeps


@dataclass(frozen=True)
class AdmissibleBand:
    """Open energy interval that can host square-well bound states."""

    lo: float
    hi: float

    @property
    def empty(self) -> bool:
        return not (self.lo < self.hi)

    def contains(self, epsilon: float, margin: float = 0.0) -> bool:
        return self.lo + margin < epsilon < self.hi - margin


def admissible_interval(k: float, v0: float) -> AdmissibleBand:
    """Band (max(-|k|, |k| - v0), |k|); degenerate (empty) for k = 0."""
    kk = abs(k)
    return AdmissibleBand(max(-kk, kk - v0), kk)


def _refine_brackets(values, rows, a, b, fa, tol) -> np.ndarray:
    """Bisect many sign-changing brackets [a, b] in lockstep.

    Bracket i belongs to row rows[i] and values(rows, x) evaluates each
    row's function at its own x.  Every bracket takes exactly the steps of
    a scalar bisection: it halves at 0.5 * (a + b), keeps the left half
    when the midpoint value has the sign of fa, stops on an exact zero and
    freezes as soon as b - a <= tol, so batching changes no bit of a root.
    A bracket whose midpoint is no longer strictly inside it freezes too,
    so a tol below the spacing of doubles ends at adjacent doubles.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    fa = np.array(fa, dtype=float)
    live = np.flatnonzero(b - a > tol)
    while live.size:
        al, bl = a[live], b[live]
        mid = 0.5 * (al + bl)
        # a bracket down to adjacent doubles cannot shrink, whatever tol asks
        inside = (al < mid) & (mid < bl)
        if not inside.all():
            live, mid = live[inside], mid[inside]
            if not live.size:
                break
        fm = np.asarray(values(rows[live], mid), dtype=float)
        same = (fa[live] < 0.0) == (fm < 0.0)
        a[live[same]] = mid[same]
        fa[live[same]] = fm[same]
        b[live[~same]] = mid[~same]
        # an exact zero shrinks its bracket onto mid, and 0.5 * (mid + mid) == mid
        zero = fm == 0.0
        a[live[zero]] = mid[zero]
        b[live[zero]] = mid[zero]
        live = live[b[live] - a[live] > tol]
    return 0.5 * (a + b)


def _roots_by_row(values, lo, hi, scan_points, tol, edge_margin=EDGE_MARGIN) -> list[list[float]]:
    """Sorted roots of many secular functions, one list per row.

    Row r is the function x -> values(r, x) on the open domain
    (lo[r], hi[r]); values takes equally long arrays of rows and energies.
    Each row gets its own uniform scan, evaluated in blocks of at most
    SCAN_BLOCK energies; the brackets of all rows are then bisected
    together, and roots within edge_margin of a domain edge are dropped.
    Raises ConfigError for fewer than two scan points, a tol that is not
    finite and positive, or an edge_margin that is not finite and
    non-negative.
    """
    if scan_points < 2:
        raise ConfigError(f"scan_points must be at least 2, got {scan_points}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigError(f"tol must be finite and positive, got {tol}")
    if not (edge_margin >= 0.0 and math.isfinite(edge_margin)):
        raise ConfigError(f"edge_margin must be finite and non-negative, got {edge_margin}")
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    rows = np.flatnonzero(lo < hi)
    per_block = max(1, SCAN_BLOCK // max(scan_points, 1))
    no_rows, no_x = np.empty(0, dtype=int), np.empty(0)
    brackets, hits = [(no_rows, no_x, no_x, no_x)], [(no_rows, no_x)]
    for start in range(0, rows.size, per_block):
        block = rows[start : start + per_block]
        grid = np.linspace(lo[block], hi[block], scan_points + 2, axis=1)[:, 1:-1]
        vals = values(np.repeat(block, grid.shape[1]), grid.ravel())
        vals = np.asarray(vals, dtype=float).reshape(grid.shape)
        sign = np.sign(vals)
        r, i = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0)
        brackets.append((block[r], grid[r, i], grid[r, i + 1], vals[r, i]))
        r, i = np.nonzero(sign == 0)  # scan point landing exactly on a root
        hits.append((block[r], grid[r, i]))
    br_rows, a, b, fa = map(np.concatenate, zip(*brackets))
    hit_rows, hit_roots = map(np.concatenate, zip(*hits))
    owner = np.concatenate([br_rows, hit_rows])
    roots = np.concatenate([_refine_brackets(values, br_rows, a, b, fa, tol), hit_roots])
    keep = (roots - lo[owner] > edge_margin) & (hi[owner] - roots > edge_margin)
    owner, roots = owner[keep], roots[keep]
    order = np.lexsort((roots, owner))
    owner, roots = owner[order], roots[order]
    bounds = np.searchsorted(owner, np.arange(lo.size + 1))
    return [roots[s:e].tolist() for s, e in zip(bounds[:-1], bounds[1:])]


def find_roots(
    secular: SecularFunction,
    scan_points: int = DEFAULT_SCAN_POINTS,
    tol: float = DEFAULT_ROOT_TOL,
    edge_margin: float = EDGE_MARGIN,
) -> list[float]:
    """All roots of a secular function strictly inside its domain.

    A uniform scan brackets sign changes, bisection refines each bracket to
    width tol, and anything within edge_margin of a band edge is dropped:
    the secular value vanishes at a q -> 0 edge without a bound state
    there.
    """
    return _roots_by_row(
        lambda rows, eps: secular(eps), [secular.lo], [secular.hi], scan_points, tol, edge_margin
    )[0]


def count_bound_states(
    k: float, v0: float, half_width: float = 1.0, scan_points: int = DEFAULT_SCAN_POINTS
) -> int:
    """Number of square-well bound states at fixed (k, v0)."""
    return len(find_roots(square_well_secular(k, v0, half_width), scan_points))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass
class SpectrumBranch:
    """One continuously tracked root across a parameter sweep.

    termination, when set, is (parameter value, boundary id) for the point
    where the branch left the band; for a v0 sweep the crossing of the
    lower edge eps = -|k| is refined to the collapse tolerance.
    """

    param_name: str
    index: int
    params: list[float] = field(default_factory=list)
    epsilons: list[float] = field(default_factory=list)
    termination: tuple[float, str] | None = None

    @property
    def slope(self) -> float:
        if len(self.params) < 2:
            return 0.0
        return (self.epsilons[-1] - self.epsilons[-2]) / (
            self.params[-1] - self.params[-2]
        )


def parameter_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Uniform grid lo, lo+step, ..., not exceeding hi by more than step/2."""
    if step <= 0:
        raise ValueError("step must be positive")
    n = int(math.floor((hi - lo) / step + 0.5))
    grid = lo + step * np.arange(n + 1)
    return grid[grid <= hi + 0.5 * step]


def _track(param_name, params, roots_per_param, on_termination=None) -> list[SpectrumBranch]:
    """Chain per-parameter root lists into branches.

    Matching is greedy nearest-to-prediction with a jump guard of ten local
    step slopes; unmatched roots open new branches, unmatched branches
    terminate.
    """
    branches: list[SpectrumBranch] = []
    active: list[SpectrumBranch] = []
    for idx, (p, roots) in enumerate(zip(params, roots_per_param)):
        step = abs(params[idx] - params[idx - 1]) if idx else 0.0
        taken = [False] * len(roots)
        survivors: list[SpectrumBranch] = []
        pairs = []
        for b in active:
            pred = b.epsilons[-1] + b.slope * step
            for j, r in enumerate(roots):
                pairs.append((abs(r - pred), b.index, b, j))
        matched = set()
        for dist, _, b, j in sorted(pairs, key=lambda t: (t[0], t[1], t[3])):
            if b.index in matched or taken[j]:
                continue
            guard = 10.0 * step * max(1.0, abs(b.slope))
            if dist > guard:
                continue
            b.params.append(float(p))
            b.epsilons.append(float(roots[j]))
            taken[j] = True
            matched.add(b.index)
            survivors.append(b)
        for b in active:
            if b.index not in matched and on_termination is not None:
                prev_p = params[idx - 1] if idx else p
                on_termination(b, float(prev_p), float(p))
        active = survivors
        for j, r in enumerate(roots):
            if not taken[j]:
                b = SpectrumBranch(param_name, len(branches))
                b.params.append(float(p))
                b.epsilons.append(float(r))
                branches.append(b)
                active.append(b)
        active.sort(key=lambda b: b.index)
    return branches


def sweep_k(
    v0: float,
    k_values,
    half_width: float = 1.0,
    scan_points: int = DEFAULT_SCAN_POINTS,
    tol: float = DEFAULT_ROOT_TOL,
) -> list[SpectrumBranch]:
    """Track square-well branches over a grid of momenta at fixed depth.

    The roots at every momentum come from one batched pass.
    """
    params = np.asarray(k_values, dtype=float)
    _check_well(params, v0, half_width)
    kk = np.abs(params)
    roots_per_param = _roots_by_row(
        lambda rows, eps: _square_well_secular_value(params[rows], eps, v0, half_width),
        np.maximum(-kk, kk - v0),
        kk,
        scan_points,
        tol,
    )

    def terminate(branch, p_prev, p_next):
        band = admissible_interval(branch.params[-1], v0)
        eps = branch.epsilons[-1]
        edge = "lower" if abs(eps - band.lo) <= abs(band.hi - eps) else "upper"
        branch.termination = (p_prev, f"{edge} band edge")

    return _track("k", params, roots_per_param, terminate)


def sweep_v0(
    k: float,
    v0_values,
    half_width: float = 1.0,
    scan_points: int = DEFAULT_SCAN_POINTS,
    tol: float = DEFAULT_ROOT_TOL,
) -> list[SpectrumBranch]:
    """Track square-well branches over a grid of depths at fixed momentum.

    The roots at every depth come from one batched pass.  When a branch
    reaches the lower band edge eps = -|k| and disappears, the crossing
    depth is refined by bisecting the boundary secular value, and the
    branch is flagged with a ('epsilon=-k') termination.
    """
    params = np.asarray(v0_values, dtype=float)
    _check_well(k, params, half_width)
    kk = abs(k)
    roots_per_param = _roots_by_row(
        lambda rows, eps: _square_well_secular_value(k, eps, params[rows], half_width),
        np.maximum(-kk, kk - params),
        np.full(params.shape, kk),
        scan_points,
        tol,
    )

    def boundary_value(rows, v):
        return _square_well_secular_value(k, -kk, v, half_width)

    def terminate(branch, p_prev, p_next):
        eps = branch.epsilons[-1]
        step = p_next - p_prev
        near_lower = abs(eps - (-kk)) <= 10.0 * step * max(1.0, abs(branch.slope))
        # the root can fall inside the edge margin one grid step before the
        # edge value itself changes sign, so bracket one step past p_next
        edges = (p_prev, p_next, p_next + step)
        if near_lower:
            for a, b in zip(edges[:-1], edges[1:]):
                fa, fb = boundary_value(None, a), boundary_value(None, b)
                if (fa < 0.0) != (fb < 0.0):
                    (v_star,) = _refine_brackets(
                        boundary_value, np.zeros(1, dtype=int), [a], [b], [fa], COLLAPSE_TOL * 1e-3
                    )
                    branch.termination = (float(v_star), "epsilon=-k")
                    return
        branch.termination = (p_prev, "band edge")

    return _track("v0", params, roots_per_param, terminate)


def branch_cut(branches: list[SpectrumBranch], param: float, atol: float = 1e-9) -> list[float]:
    """Sorted root values sampled by the branches at one parameter value."""
    out = []
    for b in branches:
        for p, e in zip(b.params, b.epsilons):
            if abs(p - param) <= atol:
                out.append(e)
    return sorted(out)


# ---------------------------------------------------------------------------
# closed-form dispersive levels
# ---------------------------------------------------------------------------


def landau_levels_magnetic(beta: float, n: int) -> tuple[float, float]:
    """Level pair (+sqrt(2 n beta), -sqrt(2 n beta)) of a uniform magnetic
    field; independent of k."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if n < 0:
        raise InvalidLevel(f"level index must be non-negative, got {n}")
    e = math.sqrt(2.0 * n * beta)
    return e, -e if n else 0.0


def landau_levels_proportional(
    alpha: float, beta: float, k: float, n: int
) -> tuple[float, float]:
    """Level pair -alpha k +/- (1 - alpha^2)^(3/4) sqrt(2 n beta) for
    proportional profiles v = alpha a with a = beta x, |alpha| < 1."""
    if abs(alpha) >= 1.0:
        raise UnsupportedRegime(
            f"levels exist in closed form only for |alpha| < 1, got {alpha}"
        )
    if beta <= 0:
        raise ValueError("beta must be positive")
    if n < 0:
        raise InvalidLevel(f"level index must be non-negative, got {n}")
    shift = (1.0 - alpha * alpha) ** 0.75 * math.sqrt(2.0 * n * beta)
    return -alpha * k + shift, -alpha * k - shift


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def spectrum_to_csv(roots: list[float]) -> str:
    lines = ["n,epsilon"]
    lines += [f"{i},{r!r}" for i, r in enumerate(roots)]
    return "\n".join(lines) + "\n"


def branches_to_csv(branches: list[SpectrumBranch]) -> str:
    """Sample rows 'param,branch,epsilon' in (param, branch) order, followed
    by one 'param,branch,termination=<boundary>' row per terminated branch."""
    rows = []
    for b in branches:
        for p, e in zip(b.params, b.epsilons):
            rows.append((p, b.index, e))
    rows.sort(key=lambda t: (t[0], t[1]))
    lines = ["param,branch,epsilon"]
    lines += [f"{p!r},{i},{e!r}" for p, i, e in rows]
    for b in branches:
        if b.termination is not None:
            p_star, boundary = b.termination
            lines.append(f"{p_star!r},{b.index},termination={boundary}")
    return "\n".join(lines) + "\n"


def branches_to_json_payload(branches: list[SpectrumBranch]) -> list[dict]:
    out = []
    for b in branches:
        payload = {
            "param_name": b.param_name,
            "index": b.index,
            "samples": [[p, e] for p, e in zip(b.params, b.epsilons)],
            "termination": None,
        }
        if b.termination is not None:
            payload["termination"] = {"param": b.termination[0], "boundary": b.termination[1]}
        out.append(payload)
    return out
