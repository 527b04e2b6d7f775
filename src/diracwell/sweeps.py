"""Sweeps of the paper's square well with math alone.

A sweep of at most closed_form.SCALAR_SWEEP_ROWS rows, each of at most
closed_form.SCALAR_LEVELS levels, is solved row by row by the scalar
kernel, closed_form.square_well_rows; `diracwell sweep-k` and `sweep-v0`
then build and write its branches here, and load no numpy.  A longer or
deeper sweep goes to spectrum's batch.

Besides the kernel's route this module holds what a sweep needs without
numpy: the parameter grid, whose checks spectrum.parameter_grid shares;
the termination rules of a branch that ends before the grid does, which
spectrum.sweep_k and sweep_v0 use too; and a builder and writers that
give the branches, CSV and JSON payload of spectrum's _branches,
branches_to_csv and branches_to_json_payload, value for value and byte
for byte.  Those stay in spectrum for the batch's sweeps, where numpy's
versions are faster: the pure ones are about 40 % slower at 554 samples
and up to 8 times at 3,317.  The writers take spectrum.SpectrumBranch
as well as this module's Branch, which has its fields without loading
dataclasses.
"""

from __future__ import annotations

import math

from .closed_form import _band, _check_well, square_well_rows
from .errors import ConfigError
from .landau import MAX_GRID_POINTS

__all__: list[str] = []


def grid_points(lo: float, hi: float, step: float) -> int:
    """The last index n of the grid lo + i step, i = 0..n, that
    parameter_grid then trims to hi + step/2.

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
    return int(math.floor(span))


def parameter_grid(lo: float, hi: float, step: float) -> list[float]:
    """spectrum.parameter_grid as a list: the same doubles, as numpy's
    float64 products and sums are Python's."""
    limit = hi + 0.5 * step
    return [p for p in (lo + step * i for i in range(grid_points(lo, hi, step) + 1)) if p <= limit]


def end_rule(swept: str, fixed: float, half_width: float):
    """end(param, eps, n, next param) -> (param, boundary): the termination
    of a branch of level n whose last sample is (param, eps) and which the
    next parameter value no longer holds.

    A k sweep flags the branch at its last momentum with the band edge its
    last root was nearer to.  Level n of a v0 sweep leaves through
    eps = -|k| where 2L q(-|k|) = (n + 1) pi, at the depth
    |k| + sqrt(k^2 + ((n + 1) pi / 2L)^2): a branch whose next depth lies
    at or past it ends there ('epsilon=-k'), any other at its last depth
    ('band edge')."""
    if swept == "k":
        def end(param, eps, n, following):
            lo, hi = _band(param, fixed)
            edge = "lower" if abs(eps - lo) <= abs(hi - eps) else "upper"
            return param, f"{edge} band edge"
        return end
    kk = abs(fixed)

    def end(param, eps, n, following):
        collapse = kk + math.hypot(kk, (n + 1) * math.pi / (2.0 * half_width))
        if n >= 0 and following >= collapse:
            return collapse, "epsilon=-k"
        return param, "band edge"
    return end


class Branch:
    """One level followed across a run of consecutive parameter values:
    the fields of spectrum.SpectrumBranch."""

    __slots__ = ("param_name", "index", "params", "epsilons", "termination")

    def __init__(self, param_name: str, index: int, params: list[float], epsilons: list[float]):
        self.param_name, self.index, self.params, self.epsilons = param_name, index, params, epsilons
        self.termination = None


def build_branches(swept: str, params: list[float], levels, end) -> list[Branch]:
    """spectrum._branches of the (row, n, root) lists levels over the grid
    params: runs of consecutive rows holding level n, numbered by their
    first row and root, each ended by end where the grid goes on."""
    rows, ns, roots = levels
    runs = []  # in (n, row) order, as lexsort orders the levels
    for i in sorted(range(len(rows)), key=lambda i: (ns[i], rows[i])):
        if runs and ns[runs[-1][-1]] == ns[i] and rows[runs[-1][-1]] + 1 == rows[i]:
            runs[-1].append(i)
        else:
            runs.append([i])
    runs.sort(key=lambda run: (rows[run[0]], roots[run[0]]))
    out = []
    for index, run in enumerate(runs):
        branch = Branch(swept, index, [params[rows[i]] for i in run], [roots[i] for i in run])
        after = rows[run[-1]] + 1
        if after < len(params):
            branch.termination = end(branch.params[-1], branch.epsilons[-1], ns[run[0]], params[after])
        out.append(branch)
    return out


def sweep(swept: str, fixed: float, grid: list[float], half_width: float) -> list[Branch] | None:
    """The branches of the sweep of the square well's swept parameter
    ('k' or 'v0') over grid at the fixed value of the other, as
    spectrum.sweep_k and sweep_v0 give them; None when the scalar kernel
    declines the sweep (see closed_form.square_well_rows).  ConfigError
    and UnsupportedRegime as those refuse."""
    others = [fixed] * len(grid)
    ks, v0s = (grid, others) if swept == "k" else (others, grid)
    _check_well(all(map(math.isfinite, ks)), all(map(math.isfinite, v0s)), half_width)
    levels = square_well_rows(ks, v0s, half_width)
    if levels is None:
        return None
    return build_branches(swept, grid, levels, end_rule(swept, fixed, half_width))


def _samples(branches) -> list[tuple[float, int, float]]:
    """(param, index, epsilon) of every sample in branch order, as floats;
    ConfigError where spectrum._gathered refuses: a branch without one
    energy per parameter value, a parameter, energy or termination that is
    not finite."""
    if any(len(b.params) != len(b.epsilons) for b in branches):
        raise ConfigError("a branch needs one energy per parameter value")
    samples = [(float(p), b.index, float(e)) for b in branches for p, e in zip(b.params, b.epsilons)]
    if not all(math.isfinite(p) and math.isfinite(e) for p, _, e in samples) or not all(
            math.isfinite(b.termination[0]) for b in branches if b.termination is not None):
        raise ConfigError("branch parameters and energies must be finite")
    return samples


def branches_to_csv(branches) -> str:
    """spectrum.branches_to_csv, byte for byte: sample rows
    'param,branch,epsilon' in (param, branch) order, ties in input order,
    then one 'param,branch,termination=<boundary>' row per terminated
    branch."""
    samples = sorted(_samples(branches), key=lambda s: (s[0], s[1]))  # stable, as lexsort
    lines = ["param,branch,epsilon"]
    lines += [f"{p!r},{i},{e!r}" for p, i, e in samples]
    lines += [f"{b.termination[0]!r},{b.index},termination={b.termination[1]}"
              for b in branches if b.termination is not None]
    return "\n".join(lines) + "\n"


def branches_to_json_payload(branches) -> list[dict]:
    """spectrum.branches_to_json_payload, value for value: one dict per
    branch, its samples [param, epsilon] as floats."""
    _samples(branches)
    return [{"param_name": b.param_name, "index": b.index,
             "samples": [[float(p), float(e)] for p, e in zip(b.params, b.epsilons)],
             "termination": None if b.termination is None
             else {"param": b.termination[0], "boundary": b.termination[1]}}
            for b in branches]
