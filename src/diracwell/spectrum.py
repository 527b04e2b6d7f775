"""Root finding and spectral sweeps of square and piecewise wells.

Square-well bound states live strictly inside the band of matching._band,
(max(-|k|, |k| - v0), |k|), mirrored for a barrier, and are exactly the
crossings theta = pi/2 + n pi of the monotone square-well phase: levels
are counted in closed form and each takes bracketed Newton steps on its
own crossing, with the closed-form slope dtheta/deps, in one batch that
is compacted only once half its levels have closed.  A sweep in k or v0
solves every parameter value in one batched pass; a branch is a run of
consecutive parameter values holding the same level.  A genuine well that
counts no level is refused, not reported empty, and so is one whose phase
rounding moves a level by more than DEFAULT_ROOT_TOL.
A piecewise well's transfer phase (matching._transfer_phase_slope) is
solved by the same kernel on the band of the same rule, its levels
counted between its phases at the innermost doubles of that band.  The
shooting oracle keeps one solver of its own, independent of this one: an
Anderson-Bjorck secant (oracle._anderson_bjorck) on a stepwise profile's
phase crossings, bracketed from one grid call, and a smooth profile's
scanned determinant.  The CSV and JSON sweep writers refuse the same
branches, in one gathering step (_gathered).
The closed-form Landau ladders live in landau, which loads no numpy;
MAX_GRID_POINTS, which parameter_grid checks and which caps the levels
of one solve, is defined there too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ConfigError, UnsupportedRegime
from .landau import MAX_GRID_POINTS
from .matching import (
    SecularFunction,
    _band,
    _check_well,
    _square_well_phase_slope,
)

__all__ = [
    "SpectrumBranch",
    "find_roots",
    "sweep_k",
    "sweep_v0",
    "branch_cut",
    "parameter_grid",
    "spectrum_to_csv",
    "branches_to_csv",
    "branches_to_json_payload",
]

DEFAULT_ROOT_TOL = 1e-10
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
    when a row where binds holds counts no level: a genuine well
    (k != 0, v0 != 0) holds one, as its phase grows by more than pi across
    the band, so its level lies within a double of a band edge; and when
    the rows' levels sum past MAX_GRID_POINTS, the cap of grids and
    states, before any per-level array is allocated.
    """
    inner_lo, inner_hi = np.nextafter(lo, hi), np.nextafter(hi, lo)
    live = np.flatnonzero(inner_lo < inner_hi)
    inner_lo, inner_hi = inner_lo[live], inner_hi[live]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # the kernels hold none
        theta = phase(np.concatenate((live, live)), np.concatenate((inner_lo, inner_hi)))[0]
    th_lo, th_hi = theta[: live.size], theta[live.size :]
    reach = np.maximum(np.abs(th_lo), np.abs(th_hi))
    if np.count_nonzero(np.isfinite(reach)) < reach.size:
        raise UnsupportedRegime("phase is not finite at a band end: levels are not distinct doubles")
    if np.count_nonzero(np.spacing(reach) < math.pi) < reach.size:
        raise UnsupportedRegime(f"phase reaches {np.max(reach):.3g}: levels are not distinct doubles")
    flip = th_hi < th_lo
    sign = np.where(flip, -1.0, 1.0)
    u_lo, u_hi = inner_lo, inner_hi
    if np.count_nonzero(flip):
        u_lo, u_hi = np.where(flip, -inner_hi, inner_lo), np.where(flip, -inner_lo, inner_hi)
        th_lo, th_hi = np.where(flip, th_hi, th_lo), np.where(flip, th_lo, th_hi)
    first = np.floor((th_lo - 0.5 * math.pi) / math.pi).astype(int) + 1
    last = np.ceil((th_hi - 0.5 * math.pi) / math.pi).astype(int) - 1
    count = np.maximum(last - first + 1, 0)
    if np.count_nonzero(binds):
        empty = np.broadcast_to(binds, lo.shape).copy()
        empty[live[count > 0]] = False
        if np.count_nonzero(empty):
            raise UnsupportedRegime(
                f"{np.count_nonzero(empty)} well(s) bind a level within one double of the band edge: "
                "too weakly bound to resolve"
            )
    total = np.sum(count, dtype=float)  # in floats: a sum of int64 counts can wrap
    if total > MAX_GRID_POINTS:
        raise UnsupportedRegime(f"{total:.0f} levels in one solve, more than the {MAX_GRID_POINTS} it takes")
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
    step's sign random.  A level is done at b - a <= spacing(|k|): the
    call where it closes records its root 0.5 (a + b) and slope, and it
    stays in the batch, frozen, until at most half the batch is open, when
    the batch is compacted.  A frozen level is evaluated only inside its
    closed bracket, where the midpoint check sends it, so the open levels
    take the same iterates and the batch the same calls as if it had left:
    about 6 calls (median), and a level still open after NEWTON_CALLS
    calls is bisected.  A batch without a mirrored (barrier) row skips the
    sign products.  UnsupportedRegime when the
    rounding of theta, spacing(theta) / theta', could move a root by more
    than DEFAULT_ROOT_TOL, and when a row's sorted roots are not strictly
    increasing: its levels are not distinct doubles, the rule
    _level_ranges applies to the phase.
    """
    live, sign, u_lo, u_hi, th_lo, th_hi, first, count = _level_ranges(phase, lo, hi, binds)
    at = np.repeat(np.arange(live.size), count)
    n = first[at] + np.arange(at.size) - np.repeat(np.cumsum(count) - count, count)
    rows, s, target = live[at], sign[at], 0.5 * math.pi + n * math.pi
    a, b = u_lo[at], u_hi[at]
    x = a + (target - th_lo[at]) / (th_hi[at] - th_lo[at]) * (b - a)
    width = reach = np.spacing(np.maximum(np.abs(lo), np.abs(hi))[rows])
    root, slope_at = np.empty(at.size), np.empty(at.size)
    todo, frozen, shut, calls = np.arange(at.size), np.zeros(at.size, dtype=bool), 0, 0
    mirrored = np.count_nonzero(sign < 0.0) > 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # one guard for every phase call
        while shut < todo.size:
            if calls < NEWTON_CALLS:
                inside = (a < x) & (x < b)
                if np.count_nonzero(inside) < inside.size:
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
            if np.count_nonzero(stretch):
                x = x + np.where(stretch, np.copysign(reach, step), step)
                reach = np.where(stretch, 2.0 * reach, reach)
            else:
                x = x + step
            closed = np.count_nonzero(done)
            if closed > shut:  # brackets only narrow, so a closed level stays closed
                fresh = done > frozen
                root[todo[fresh]], slope_at[todo[fresh]] = 0.5 * (a + b)[fresh], slope[fresh]
                frozen, shut = done, closed
                if 2 * closed >= todo.size:
                    keep = ~done
                    todo, frozen, rows, s, target, a, b, x, width, reach = (
                        v[keep] for v in (todo, done, rows, s, target, a, b, x, width, reach)
                    )
                    shut = 0
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
    rows, n, root = rows[order], n[order], root[order]
    tied = np.count_nonzero((rows[1:] == rows[:-1]) & ~(root[1:] > root[:-1]))
    if tied:
        raise UnsupportedRegime(f"{tied} level(s) round to the double of the level below: "
                                "levels are not distinct doubles")
    return rows, n, root


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
    the band edge or it holds more than MAX_GRID_POINTS levels (see
    _level_ranges), when the phase's rounding could
    move a level by more than DEFAULT_ROOT_TOL, or when two levels round
    to one double (see _levels_by_row).
    """
    lo, hi = np.array([secular.lo]), np.array([secular.hi])
    phase = getattr(secular.phase, "__wrapped__", secular.phase)  # unguarded: _levels_by_row holds one
    return _levels_by_row(lambda rows, eps: phase(eps), lo, hi, secular.binds)[2].tolist()


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


def _sweep_grid(values) -> np.ndarray:
    """A sweep's parameter values as floats; ConfigError unless they form
    a one-dimensional grid."""
    params = np.asarray(values, dtype=float)
    if params.ndim != 1:
        raise ConfigError(f"a sweep grid must be one-dimensional, got shape {params.shape}")
    return params


def sweep_k(v0: float, k_values, half_width: float = 1.0) -> list[SpectrumBranch]:
    """Square-well branches over a grid of momenta at fixed depth, from one
    batched pass.  A branch that ends before the grid does is flagged at its
    last momentum with the band edge its last root was nearer to."""
    params = _sweep_grid(k_values)
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
    params = _sweep_grid(v0_values)
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
# serialization
# ---------------------------------------------------------------------------


def spectrum_to_csv(roots: list[float]) -> str:
    lines = ["n,epsilon"]
    lines += [f"{i},{r!r}" for i, r in enumerate(roots)]
    return "\n".join(lines) + "\n"


def _gathered(branches: list[SpectrumBranch]):
    """(sample count per branch, parameters, energies, ((param, boundary),
    index) per terminated branch); ConfigError for a branch without one
    energy per parameter value and for a parameter or energy that is not
    finite."""
    sizes = [len(b.params) for b in branches]
    if sizes != [len(b.epsilons) for b in branches]:
        raise ConfigError("a branch needs one energy per parameter value")
    params = np.fromiter(chain.from_iterable(b.params for b in branches), float, sum(sizes))
    eps = np.fromiter(chain.from_iterable(b.epsilons for b in branches), float, params.size)
    ends = [(b.termination, b.index) for b in branches if b.termination is not None]
    if not (np.isfinite(params).all() and np.isfinite(eps).all() and all(math.isfinite(t[0]) for t, _ in ends)):
        raise ConfigError("branch parameters and energies must be finite")
    return sizes, params, eps, ends


def branches_to_csv(branches: list[SpectrumBranch]) -> str:
    """Sample rows 'param,branch,epsilon' in (param, branch) order, ties in
    input order, followed by one 'param,branch,termination=<boundary>' row
    per terminated branch; values are written as repr writes their floats.
    ConfigError for the branches _gathered refuses."""
    sizes, params, eps, ends = _gathered(branches)
    which = np.repeat(np.arange(len(branches)), sizes)
    order = np.lexsort((np.array([b.index for b in branches], dtype=np.int64)[which], params))
    # each distinct parameter (by its bits: 0.0 and -0.0 apart) and branch tag is formatted once
    values, slot = np.unique(params[order].view(np.int64), return_inverse=True)
    texts = ["\n" + repr(p) for p in values.view(float).tolist()]
    tags = [f",{b.index}," for b in branches]
    pieces = [""] * (3 * params.size)
    pieces[0::3] = map(texts.__getitem__, slot.tolist())
    pieces[1::3] = map(tags.__getitem__, which[order].tolist())
    pieces[2::3] = map(repr, eps[order].tolist())
    lines = ["param,branch,epsilon" + "".join(pieces)]
    lines += [f"{p!r},{i},termination={boundary}" for (p, boundary), i in ends]
    return "\n".join(lines) + "\n"


def branches_to_json_payload(branches: list[SpectrumBranch]) -> list[dict]:
    """One dict per branch, its samples [param, epsilon] as floats.
    ConfigError for the branches _gathered refuses, so that the JSON holds
    no NaN or Infinity and drops no sample."""
    sizes, params, eps, _ = _gathered(branches)
    samples = np.stack([params, eps], axis=1).tolist()
    starts = np.cumsum([0] + sizes).tolist()
    return [{"param_name": b.param_name, "index": b.index, "samples": samples[start:end],
             "termination": None if b.termination is None
             else {"param": b.termination[0], "boundary": b.termination[1]}}
            for b, start, end in zip(branches, starts, starts[1:])]
