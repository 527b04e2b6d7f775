"""Root finding, spectral sweeps, and closed-form dispersive levels.

Square-well bound states live strictly inside the admissible band
(max(-|k|, |k| - v0), |k|), mirrored for a barrier, and are exactly the
crossings theta = pi/2 + n pi of the monotone square-well phase: levels
are counted in closed form and each is bisected on its own crossing.  A
sweep in k or v0 solves every parameter value in one batched pass; a
branch is a run of consecutive parameter values holding the same level.
Secular functions without a phase are bracketed on an edge-refined scan
and bisected, all brackets in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidLevel, UnsupportedRegime
from .matching import (
    SecularFunction,
    _check_well,
    _square_well_band,
    _square_well_phase,
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
EDGE_POINTS = 12  # geometric scan points toward each domain edge


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
    """Band (max(-|k|, |k| - v0), |k|) of a well, and its mirror image
    (-|k|, min(|k|, |v0| - |k|)) for a barrier; empty for k = 0."""
    return AdmissibleBand(*map(float, _square_well_band(k, v0)))


def _level_ranges(phase, lo, hi):
    """(rows, sign, u_lo, u_hi, first n, level count) of the rows whose
    band holds two doubles or more.

    A row's levels are the crossings phase = pi/2 + n pi strictly between
    its phases at the innermost doubles (u_lo, u_hi) of its band, so no
    level is missed and neither the spurious zero at a q -> 0 edge nor a
    level that no double separates from an edge is one.  u = sign * eps:
    a barrier's decreasing phase is its mirrored well's in u = -eps.
    UnsupportedRegime when a phase at a band end is not finite or doubles
    there are pi or more apart: crossings are then not distinct doubles.
    """
    inner_lo, inner_hi = np.nextafter(lo, hi), np.nextafter(hi, lo)
    live = np.flatnonzero(inner_lo < inner_hi)
    inner_lo, inner_hi = inner_lo[live], inner_hi[live]
    with np.errstate(over="ignore", invalid="ignore"):
        th_lo, th_hi = phase(live, inner_lo), phase(live, inner_hi)
    reach = np.maximum(np.abs(th_lo), np.abs(th_hi))
    if not np.all(np.spacing(reach) < math.pi):  # NaN for a phase that is not finite
        raise UnsupportedRegime(f"phase reaches {np.max(reach):.3g}: levels are not distinct doubles")
    sign = np.where(th_hi < th_lo, -1.0, 1.0)
    u_lo, u_hi = np.sort([sign * inner_lo, sign * inner_hi], axis=0)
    th_lo, th_hi = np.sort([th_lo, th_hi], axis=0)
    first = np.floor((th_lo - 0.5 * math.pi) / math.pi).astype(int) + 1
    last = np.ceil((th_hi - 0.5 * math.pi) / math.pi).astype(int) - 1
    return live, sign, u_lo, u_hi, first, np.maximum(last - first + 1, 0)


def _levels_by_row(phase, lo, hi):
    """Every level of many rows, as (row, n, root) arrays sorted by row and root.

    Row r has the phase eps -> phase(rows, eps), monotone on its open band
    (lo[r], hi[r]) of the float arrays lo and hi (see _level_ranges).  Each
    level bisects its crossing for its row's ceil(log2(width / spacing(|k|)))
    halvings, about 54, to about one double spacing of |k| = max(|lo|, |hi|),
    independently of the rows batched with it.
    """
    live, sign, u_lo, u_hi, first, count = _level_ranges(phase, lo, hi)
    kk = np.maximum(np.abs(lo), np.abs(hi))[live]
    halvings = np.ceil(np.log2((u_hi - u_lo) / np.spacing(kk)))
    at = np.repeat(np.arange(live.size), count)
    n = first[at] + np.arange(at.size) - np.repeat(np.cumsum(count) - count, count)
    rows, s, target = live[at], sign[at], 0.5 * math.pi + n * math.pi
    a, b = u_lo[at], u_hi[at]
    for i in range(int(halvings.max(initial=0))):
        mid = 0.5 * (a + b)
        theta = phase(rows, s * mid)
        halve = i < halvings[at]
        a = np.where(halve & (theta <= target), mid, a)
        b = np.where(halve & (theta >= target), mid, b)
    root = s * 0.5 * (a + b)
    n = np.where(s > 0.0, n, -n - 1)
    order = np.lexsort((root, rows))
    return rows[order], n[order], root[order]


def _square_well_levels(k, v0, half_width):
    """(row, n, root) of every level of the square wells (k[r], v0[r])."""
    k, v0 = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(v0, dtype=float))
    return _levels_by_row(
        lambda rows, eps: _square_well_phase(k[rows], eps, v0[rows], half_width), *_square_well_band(k, v0)
    )


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


def _scan_grid(lo, hi, scan_points, edge_margin) -> np.ndarray:
    """Scan energies of each domain (lo[r], hi[r]), one row each.

    scan_points uniform interior points, plus EDGE_POINTS toward each edge,
    geometric from 2 * edge_margin out to the outermost uniform point, so a
    root inside an edge cell is bracketed too.  They fall on the outermost
    uniform points when 2 * edge_margin is zero or not below one cell.
    """
    uniform = np.linspace(lo, hi, scan_points + 2, axis=1)[:, 1:-1]
    cell = ((hi - lo) / (scan_points + 1))[:, None]
    near = np.minimum(2.0 * edge_margin / cell, 1.0) if edge_margin > 0.0 else 1.0
    offsets = cell * near ** (1.0 - np.arange(EDGE_POINTS) / EDGE_POINTS)
    low = np.minimum(lo[:, None] + offsets, uniform[:, :1])
    high = np.maximum(hi[:, None] - offsets[:, ::-1], uniform[:, -1:])
    return np.concatenate([low, uniform, high], axis=1)


def _roots_by_row(values, lo, hi, scan_points, tol, edge_margin=EDGE_MARGIN) -> list[list[float]]:
    """Sorted roots of many secular functions, one list per row.

    Row r is the function x -> values(r, x) on the open domain
    (lo[r], hi[r]); values takes equally long arrays of rows and energies.
    The brackets of all rows' scans are bisected together, and roots
    within edge_margin of a domain edge are dropped.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    rows = np.flatnonzero(lo < hi)
    grid = _scan_grid(lo[rows], hi[rows], scan_points, edge_margin)
    vals = values(np.repeat(rows, grid.shape[1]), grid.ravel())
    vals = np.asarray(vals, dtype=float).reshape(grid.shape)
    sign = np.sign(vals)
    r, i = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0)
    bracketed = _refine_brackets(values, rows[r], grid[r, i], grid[r, i + 1], vals[r, i], tol)
    # a scan point on a root counts once, also where edge points coincide
    fresh = np.concatenate([np.ones_like(sign[:, :1], dtype=bool), grid[:, 1:] > grid[:, :-1]], axis=1)
    h, j = np.nonzero((sign == 0) & fresh)
    owner = np.concatenate([rows[r], rows[h]])
    roots = np.concatenate([bracketed, grid[h, j]])
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
    """All roots of a secular function strictly inside its domain, sorted.

    A function with a phase (the square well) is solved level by level,
    complete whatever the scan settings.  Any other is scanned (see
    _scan_grid), bisected to width tol, and roots within edge_margin of a
    domain edge are dropped: the secular value can vanish at a band edge
    without a bound state there.  Raises ConfigError for fewer than two
    scan points, a tol that is not finite and positive, or an edge_margin
    that is not finite and non-negative.
    """
    if scan_points < 2:
        raise ConfigError(f"scan_points must be at least 2, got {scan_points}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigError(f"tol must be finite and positive, got {tol}")
    if not (edge_margin >= 0.0 and math.isfinite(edge_margin)):
        raise ConfigError(f"edge_margin must be finite and non-negative, got {edge_margin}")
    if secular.phase is not None:
        lo, hi = np.array([secular.lo]), np.array([secular.hi])
        return _levels_by_row(lambda rows, eps: secular.phase(eps), lo, hi)[2].tolist()
    return _roots_by_row(
        lambda rows, eps: secular(eps), [secular.lo], [secular.hi], scan_points, tol, edge_margin
    )[0]


def count_bound_states(k: float, v0: float, half_width: float = 1.0) -> int:
    """Number of square-well bound states at fixed (k, v0), in closed form."""
    sec = square_well_secular(k, v0, half_width)
    *_, count = _level_ranges(lambda rows, eps: sec.phase(eps), np.array([sec.lo]), np.array([sec.hi]))
    return int(count.sum())


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass
class SpectrumBranch:
    """One level followed across a run of consecutive parameter values.

    termination, when set, is (parameter value, boundary id) for the point
    where the branch left the band; for a v0 sweep the crossing of the
    lower edge eps = -|k| is the closed-form collapse depth.
    """

    param_name: str
    index: int
    params: list[float] = field(default_factory=list)
    epsilons: list[float] = field(default_factory=list)
    termination: tuple[float, str] | None = None


def parameter_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Uniform grid lo, lo+step, ..., not exceeding hi by more than step/2."""
    if step <= 0:
        raise ValueError("step must be positive")
    n = int(math.floor((hi - lo) / step + 0.5))
    grid = lo + step * np.arange(n + 1)
    return grid[grid <= hi + 0.5 * step]


def _branches(param_name, params, levels, end) -> list[SpectrumBranch]:
    """Branches of a sweep from its (row, n, root) levels.

    A branch is a run of consecutive parameter values holding level n;
    branches are numbered by first appearance, ties broken by energy.  A
    branch that ends before the grid does gets the termination
    end(branch, n, next parameter value).
    """
    rows, n, roots = levels
    order = np.lexsort((rows, n))
    rows, n, roots = rows[order], n[order], roots[order]
    cuts = np.flatnonzero((np.diff(n) != 0) | (np.diff(rows) != 1)) + 1
    runs = [(s, e) for s, e in zip(np.r_[0, cuts], np.r_[cuts, rows.size]) if e > s]
    runs.sort(key=lambda run: (rows[run[0]], roots[run[0]]))
    branches = []
    for index, (s, e) in enumerate(runs):
        branch = SpectrumBranch(param_name, index, params[rows[s:e]].tolist(), roots[s:e].tolist())
        if rows[e - 1] + 1 < params.size:
            branch.termination = end(branch, int(n[s]), float(params[rows[e - 1] + 1]))
        branches.append(branch)
    return branches


def sweep_k(v0: float, k_values, half_width: float = 1.0) -> list[SpectrumBranch]:
    """Square-well branches over a grid of momenta at fixed depth, from one
    batched pass.  A branch that ends before the grid does is flagged at its
    last momentum with the band edge its last root was nearer to."""
    params = np.asarray(k_values, dtype=float)
    _check_well(params, v0, half_width)

    def end(branch, n, k_next):
        band = admissible_interval(branch.params[-1], v0)
        eps = branch.epsilons[-1]
        edge = "lower" if abs(eps - band.lo) <= abs(band.hi - eps) else "upper"
        return branch.params[-1], f"{edge} band edge"

    return _branches("k", params, _square_well_levels(params, v0, half_width), end)


def sweep_v0(k: float, v0_values, half_width: float = 1.0) -> list[SpectrumBranch]:
    """Square-well branches over a grid of depths at fixed momentum, from one
    batched pass.  Level n of a well leaves through eps = -|k| where
    2L q(-|k|) = (n + 1) pi, at the depth |k| + sqrt(k^2 + ((n + 1) pi / 2L)^2):
    a branch whose next depth lies at or past it ends there ('epsilon=-k'),
    any other that ends before the grid does at its last depth ('band edge').
    """
    params = np.asarray(v0_values, dtype=float)
    _check_well(k, params, half_width)
    kk = abs(k)

    def end(branch, n, v0_next):
        collapse = kk + math.hypot(kk, (n + 1) * math.pi / (2.0 * half_width))
        if n >= 0 and v0_next >= collapse:
            return collapse, "epsilon=-k"
        return branch.params[-1], "band edge"

    return _branches("v0", params, _square_well_levels(k, params, half_width), end)


def branch_cut(branches: list[SpectrumBranch], param: float, atol: float = 1e-9) -> list[float]:
    """Sorted root values sampled by the branches at one parameter value."""
    return sorted(e for b in branches for p, e in zip(b.params, b.epsilons) if abs(p - param) <= atol)


# ---------------------------------------------------------------------------
# closed-form dispersive levels
# ---------------------------------------------------------------------------


def landau_levels_magnetic(beta: float, n: int) -> tuple[float, float]:
    """Level pair (+sqrt(2 n beta), -sqrt(2 n beta)) of a uniform magnetic
    field; independent of k.  beta must be finite and positive."""
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ConfigError(f"beta must be finite and positive, got {beta}")
    if n < 0:
        raise InvalidLevel(f"level index must be non-negative, got {n}")
    e = math.sqrt(2.0 * n * beta)
    return e, -e if n else 0.0


def landau_levels_proportional(
    alpha: float, beta: float, k: float, n: int
) -> tuple[float, float]:
    """Level pair -alpha k +/- (1 - alpha^2)^(3/4) sqrt(2 n beta) for
    proportional profiles v = alpha a with a = beta x, |alpha| < 1, finite
    k and beta as for landau_levels_magnetic."""
    for name, value in (("alpha", alpha), ("k", k)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if abs(alpha) >= 1.0:
        raise UnsupportedRegime(
            f"levels exist in closed form only for |alpha| < 1, got {alpha}"
        )
    shift = (1.0 - alpha * alpha) ** 0.75 * landau_levels_magnetic(beta, n)[0]
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
