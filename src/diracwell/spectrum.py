"""Root finding, spectral sweeps, and closed-form dispersive levels.

Square-well bound states live strictly inside the band of matching._band,
(max(-|k|, |k| - v0), |k|), mirrored for a barrier, and are exactly the
crossings theta = pi/2 + n pi of the monotone square-well phase: levels
are counted in closed form and each takes bracketed Newton steps on its
own crossing, with the closed-form slope dtheta/deps.  A sweep in k or v0
solves every parameter value in one batched pass; a branch is a run of
consecutive parameter values holding the same level.  A genuine well that
counts no level is refused, not reported empty, and so is one whose phase
rounding moves a level by more than DEFAULT_ROOT_TOL.
A piecewise well's transfer phase (matching._transfer_phase_slope) is
solved by the same kernel on the band of the same rule, its levels
counted between its phases at the innermost doubles of that band.  The
shooting oracle keeps one solver of its own, independent of this one: an
Illinois secant (oracle._illinois) on a stepwise profile's phase
crossings and a smooth profile's scanned determinant.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidLevel, UnsupportedRegime
from .matching import (
    SecularFunction,
    _band,
    _check_well,
    _square_well_phase_slope,
    square_well_secular,
)

__all__ = [
    "SpectrumBranch",
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

DEFAULT_ROOT_TOL = 1e-10
MAX_GRID_POINTS = 1_000_000
NEWTON_CALLS = 40  # batched phase calls after which a level still open is bisected
CUT_ATOL = 1e-9  # branch_cut takes the samples this near its parameter


def _level_ranges(phase, lo, hi, binds):
    """(rows, sign, u_lo, u_hi, theta there, first n, level count) of the
    rows whose band holds two doubles or more; phase(rows, eps)[0] is theta.

    A row's levels are the crossings phase = pi/2 + n pi strictly between
    its phases at the innermost doubles (u_lo, u_hi) of its band, so no
    level is missed and neither the spurious zero at a q -> 0 edge nor a
    level that no double separates from an edge is one.  u = sign * eps:
    a barrier's decreasing phase is its mirrored well's in u = -eps.
    UnsupportedRegime when a phase at a band end is not finite or doubles
    there are pi or more apart: crossings are then not distinct doubles;
    and when a row where binds holds counts no level: a genuine well
    (k != 0, v0 != 0) holds one, as its phase grows by more than pi across
    the band, so its level lies within a double of a band edge.
    """
    inner_lo, inner_hi = np.nextafter(lo, hi), np.nextafter(hi, lo)
    live = np.flatnonzero(inner_lo < inner_hi)
    inner_lo, inner_hi = inner_lo[live], inner_hi[live]
    with np.errstate(over="ignore", invalid="ignore"):
        theta = phase(np.concatenate((live, live)), np.concatenate((inner_lo, inner_hi)))[0]
    th_lo, th_hi = theta[: live.size], theta[live.size :]
    reach = np.maximum(np.abs(th_lo), np.abs(th_hi))
    if not np.all(np.isfinite(reach)):
        raise UnsupportedRegime("phase is not finite at a band end: levels are not distinct doubles")
    if not np.all(np.spacing(reach) < math.pi):
        raise UnsupportedRegime(f"phase reaches {np.max(reach):.3g}: levels are not distinct doubles")
    flip = th_hi < th_lo
    sign = np.where(flip, -1.0, 1.0)
    u_lo, u_hi = inner_lo, inner_hi
    if flip.any():
        u_lo, u_hi = np.where(flip, -inner_hi, inner_lo), np.where(flip, -inner_lo, inner_hi)
        th_lo, th_hi = np.where(flip, th_hi, th_lo), np.where(flip, th_lo, th_hi)
    first = np.floor((th_lo - 0.5 * math.pi) / math.pi).astype(int) + 1
    last = np.ceil((th_hi - 0.5 * math.pi) / math.pi).astype(int) - 1
    count = np.maximum(last - first + 1, 0)
    if np.any(binds):
        empty = np.broadcast_to(binds, lo.shape).copy()
        empty[live[count > 0]] = False
        if empty.any():
            raise UnsupportedRegime(
                f"{np.count_nonzero(empty)} well(s) bind a level within one double of the band edge: "
                "too weakly bound to resolve"
            )
    return live, sign, u_lo, u_hi, th_lo, th_hi, first, count


def _narrowed(rows, x, theta, target, a, b):
    """Brackets [a, b] of the levels in rows, each narrowed onto the
    nearest of its row's points x with theta at or below and above its
    target; x holds one point per level, ordered along each row as the
    targets are, so that theta, monotone, is ordered there too."""
    # complex numbers order by (real, imag): by row, then by theta
    below = np.searchsorted(rows + 1j * theta, rows + 1j * target, side="right") - 1
    above = np.minimum(below + 1, x.size - 1)
    a = np.where((below >= 0) & (rows[below] == rows), np.maximum(a, x[below]), a)
    b = np.where((above > below) & (rows[above] == rows), np.minimum(b, x[above]), b)
    return a, b


def _levels_by_row(phase, lo, hi, binds):
    """Every level of many rows, as (row, n, root) arrays sorted by row and root.

    Row r has the phase eps -> phase(rows, eps) = (theta, dtheta/deps),
    theta monotone on its open band (lo[r], hi[r]) of the float arrays lo
    and hi, and holds a level where binds is set (see _level_ranges).

    Each level takes bracketed Newton steps on its crossing, in
    u = sign * eps, from the linear interpolation of theta across its row's
    band; the first call's points, one per level, also narrow each level's
    bracket onto its row's nearest points on either side of its target (see
    _narrowed).  Every evaluation narrows the bracket [a, b], onto the
    point itself where theta is the target, and a step that is not finite
    or leaves (a, b) goes to the midpoint instead.  A step shorter than
    reach is stretched to it; reach starts at spacing(|k|),
    |k| = max(|lo|, |hi|), and doubles with each stretch, so that the
    bracket also closes from the far side once theta's rounding makes the
    step's sign random.  A level is done at b - a <= spacing(|k|), as
    0.5 (a + b), and leaves the batch: about 6 calls (median), and a level
    still open after NEWTON_CALLS calls is bisected.  Only a call where
    some level closes compacts the batch, and a batch without a mirrored
    (barrier) row skips the sign products.  UnsupportedRegime when the
    rounding of theta, spacing(theta) / theta', could move a root by more
    than DEFAULT_ROOT_TOL.
    """
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
    blurred = ~(blur <= DEFAULT_ROOT_TOL)  # NaN for a slope that is not finite
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


def _square_well_levels(k, v0, half_width):
    """(row, n, root) of every level of the square wells (k[r], v0[r])."""
    k, v0 = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(v0, dtype=float))
    return _levels_by_row(
        lambda rows, eps: _square_well_phase_slope(k[rows], eps, v0[rows], half_width),
        *_band(k, (0.0, -v0, 0.0)),
        (k != 0.0) & (v0 != 0.0),
    )


def find_roots(secular: SecularFunction) -> list[float]:
    """All roots of a secular function strictly inside its domain, sorted:
    the crossings of its phase, solved level by level (see _levels_by_row).

    UnsupportedRegime when it binds but its level lies within a double of
    the band edge (see _level_ranges), or when the phase's rounding could
    move a level by more than DEFAULT_ROOT_TOL.
    """
    lo, hi = np.array([secular.lo]), np.array([secular.hi])
    return _levels_by_row(lambda rows, eps: secular.phase(eps), lo, hi, secular.binds)[2].tolist()


def count_bound_states(k: float, v0: float, half_width: float = 1.0) -> int:
    """Number of square-well bound states at fixed (k, v0): the length of
    find_roots, so it raises the same UnsupportedRegime."""
    return len(find_roots(square_well_secular(k, v0, half_width)))


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
    """Uniform grid lo, lo+step, ..., not exceeding hi by more than step/2.

    ConfigError for a step that is not positive and finite (NaN included),
    for bounds that are not finite and, before anything is allocated, for
    a grid of more than MAX_GRID_POINTS points."""
    if not (step > 0 and math.isfinite(step)):
        raise ConfigError(f"step must be positive and finite, got {step}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"grid bounds must be finite, got {lo}:{hi}")
    span = (hi - lo) / step + 0.5
    if not span < MAX_GRID_POINTS:
        raise ConfigError(f"grid {lo}:{hi}:{step} has more than {MAX_GRID_POINTS} points")
    n = int(math.floor(span))
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
        lo, hi = _band(branch.params[-1], (0.0, -v0, 0.0))
        eps = branch.epsilons[-1]
        edge = "lower" if abs(eps - lo) <= abs(hi - eps) else "upper"
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


def branch_cut(branches: list[SpectrumBranch], param: float) -> list[float]:
    """Sorted root values sampled by the branches within CUT_ATOL of one parameter value."""
    return sorted(e for b in branches for p, e in zip(b.params, b.epsilons) if abs(p - param) <= CUT_ATOL)


# ---------------------------------------------------------------------------
# closed-form dispersive levels
# ---------------------------------------------------------------------------


def landau_levels_magnetic(beta: float, n: int) -> tuple[float, float]:
    """Level pair (+sqrt(2 n beta), -sqrt(2 n beta)) of a uniform magnetic
    field; independent of k.  beta must be finite and positive and n a
    non-negative integer, not a bool; UnsupportedRegime when 2 n beta
    overflows a double."""
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ConfigError(f"beta must be finite and positive, got {beta}")
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise InvalidLevel(f"level index must be a non-negative integer, got {n!r}")
    e = math.sqrt(2.0 * n * beta)
    if math.isinf(e):
        raise UnsupportedRegime(f"level {n} at beta={beta} overflows a double")
    return e, -e if n else 0.0


def landau_levels_proportional(
    alpha: float, beta: float, k: float, n: int
) -> tuple[float, float]:
    """Level pair -alpha k +/- (1 - alpha^2)^(3/4) sqrt(2 n beta) for
    proportional profiles v = alpha a with a = beta x, |alpha| < 1, finite
    k and beta and n as for landau_levels_magnetic."""
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
