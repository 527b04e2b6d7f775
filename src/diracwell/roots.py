"""The root kernel: bracketing scans and lockstep bisection.

Many real functions, one per row, are scanned on their own domains and
every sign-changing bracket is bisected in lockstep, several halvings per
batched evaluation.  Each halving is the scalar bisection's step bit for
bit, so batching and the number of levels per call change no root.  The
module needs numpy and imports only the package's errors: the shooting
oracle solves with it, and so shares no algebra with the phase routes of
spectrum.py.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

EDGE_POINTS = 12  # geometric scan points toward each domain edge
EDGE_MARGIN = 1e-6  # roots this close to a domain edge are dropped


def _check_scan(scan_points, tol) -> None:
    """Raise ConfigError for fewer than two scan points or a tol that is not
    finite and positive."""
    if scan_points < 2:
        raise ConfigError(f"scan_points must be at least 2, got {scan_points}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigError(f"tol must be finite and positive, got {tol}")


def _scan_grid(lo, hi, scan_points, edge_margin, edge_points=EDGE_POINTS) -> np.ndarray:
    """Scan energies of each domain (lo[r], hi[r]), one row each.

    scan_points uniform interior points, plus edge_points toward each edge,
    geometric from 2 * edge_margin out to the outermost uniform point, so a
    root inside an edge cell is bracketed too.  They fall on the outermost
    uniform points when 2 * edge_margin is zero or not below one cell.
    """
    uniform = np.linspace(lo, hi, scan_points + 2, axis=1)[:, 1:-1]
    if not edge_points:
        return uniform
    cell = ((hi - lo) / (scan_points + 1))[:, None]
    near = np.minimum(2.0 * edge_margin / cell, 1.0) if edge_margin > 0.0 else 1.0
    offsets = cell * near ** (1.0 - np.arange(edge_points) / edge_points)
    low = np.minimum(lo[:, None] + offsets, uniform[:, :1])
    high = np.maximum(hi[:, None] - offsets[:, ::-1], uniform[:, -1:])
    return np.concatenate([low, uniform, high], axis=1)


def _depth(live, budget, a, b, tol) -> int:
    """Halvings per call: the most whose midpoint tree, 2^depth - 1 points
    per bracket, keeps the call within budget points, at least one, spread
    evenly over the calls that the widest bracket still needs to reach tol
    or adjacent doubles."""
    most = max(1, (int(budget) // live + 1).bit_length() - 1)
    if most == 1:
        return 1
    floor = np.maximum(tol, np.spacing(np.maximum(np.abs(a), np.abs(b))))
    need = max(1, int(np.ceil(np.log2(np.max((b - a) / floor)))))
    calls = -(-need // most)
    return -(-need // calls)


def _midpoints(a, b, depth) -> np.ndarray:
    """Every midpoint that depth halvings of the brackets [a, b] can visit,
    shaped (brackets, 2^depth - 1): level j's 2^j midpoints, in order, start
    at column 2^j - 1.  Each is 0.5 * (a + b) of its parent interval, as in
    scalar bisection, whose bracket is always a pair of neighbouring ends
    of one level."""
    levels = [0.5 * (a + b)[:, None]]
    ends = np.stack([a, levels[0][:, 0], b], axis=1)
    for _ in range(depth - 1):
        mid = 0.5 * (ends[:, :-1] + ends[:, 1:])
        levels.append(mid)
        grown = np.empty((ends.shape[0], 2 * ends.shape[1] - 1))
        grown[:, ::2] = ends
        grown[:, 1::2] = mid
        ends = grown
    return np.concatenate(levels, axis=1)


def _bisect(values, rows, a, b, fa, tol, budget) -> np.ndarray:
    """Midpoints of many sign-changing brackets [a, b] bisected to width tol.

    Bracket i belongs to row rows[i] and values(rows, x) evaluates each
    row's function at its own x.  Each call evaluates every midpoint the
    next few halvings can visit (see _depth, _midpoints) and replays the
    scalar steps on them: a bracket halves at 0.5 * (a + b), keeps the
    right half when the midpoint value has the sign of fa, stops on an
    exact zero and freezes as soon as b - a <= tol, so no bit of a root
    depends on the batching.  A bracket whose midpoint is not strictly
    inside it freezes too, so a tol below the spacing of doubles ends at
    adjacent doubles.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    live = np.flatnonzero(b - a > tol)
    # the live brackets' state, compacted only when some bracket freezes
    al, bl, fl, at = a[live], b[live], np.asarray(fa, dtype=float)[live], rows[live]
    while live.size:
        depth = _depth(live.size, budget, al, bl, tol)
        if depth == 1:
            mids, node, ask = 0.5 * (al + bl), slice(None), at
        else:
            # each bracket's tree is a heap: node h has children 2h + 1 (left
            # half) and 2h + 2 (right half), at flat index base + h
            mids = _midpoints(al, bl, depth)
            ask = np.repeat(at, mids.shape[1])
            node = base = np.arange(live.size) * mids.shape[1]
            mids = mids.ravel()
        fm = np.asarray(values(ask, mids), dtype=float)
        for level in range(depth):
            m, f = mids[node], fm[node]
            inside = (al < m) & (m < bl)
            go = inside if level == 0 else go & inside
            # fa need not follow a: only whether it is negative is read,
            # and a moves only to midpoints that agree with it on that
            same = (fl < 0.0) == (f < 0.0)
            right = go & same
            al = np.where(right, m, al)
            bl = np.where(go ^ right, m, bl)
            if not f.all():  # an exact zero shrinks its bracket onto m
                zero = go & (f == 0.0)
                al = np.where(zero, m, al)
                bl = np.where(zero, m, bl)
            go &= bl - al > tol
            if level + 1 < depth:
                node = 2 * node - base + 1 + same
        if not go.all():
            a[live], b[live] = al, bl
            live, al, bl, fl, at = live[go], al[go], bl[go], fl[go], at[go]
    return 0.5 * (a + b)


def _roots_by_row(
    values, lo, hi, scan_points, tol, edge_points=EDGE_POINTS, budget=None
) -> list[list[float]]:
    """Sorted roots of many functions, one list per row.

    Row r is the function x -> values(r, x) on the open domain
    (lo[r], hi[r]); values takes equally long arrays of rows and energies.
    The rows are scanned together (see _scan_grid), the brackets of all
    rows are bisected together (see _bisect) with calls of at most budget
    points, by default the scan's own size, and roots within EDGE_MARGIN
    of a domain edge are dropped: a secular value can vanish at a band
    edge without a bound state there.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    rows = np.flatnonzero(lo < hi)
    grid = _scan_grid(lo[rows], hi[rows], scan_points, EDGE_MARGIN, edge_points)
    vals = values(np.repeat(rows, grid.shape[1]), grid.ravel())
    vals = np.asarray(vals, dtype=float).reshape(grid.shape)
    sign = np.sign(vals)
    r, i = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0)
    budget = grid.size if budget is None else budget
    bracketed = _bisect(values, rows[r], grid[r, i], grid[r, i + 1], vals[r, i], tol, budget)
    # a scan point on a root counts once, also where edge points coincide
    fresh = np.concatenate([np.ones_like(sign[:, :1], dtype=bool), grid[:, 1:] > grid[:, :-1]], axis=1)
    h, j = np.nonzero((sign == 0) & fresh)
    owner = np.concatenate([rows[r], rows[h]])
    roots = np.concatenate([bracketed, grid[h, j]])
    keep = (roots - lo[owner] > EDGE_MARGIN) & (hi[owner] - roots > EDGE_MARGIN)
    owner, roots = owner[keep], roots[keep]
    order = np.lexsort((roots, owner))
    owner, roots = owner[order], roots[order]
    bounds = np.searchsorted(owner, np.arange(lo.size + 1))
    return [roots[s:e].tolist() for s, e in zip(bounds[:-1], bounds[1:])]
