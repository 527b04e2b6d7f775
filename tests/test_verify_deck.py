"""verify's checks over a fixed deck of well magnitudes, against a
checked-in map of verdicts (tests/data/verify_deck.json).

Each well of the grid K_VALUES x V0_VALUES x HALF_WIDTHS, barriers, near-
zero momenta and deep, narrow and shallow wells among them, is PASS,
refused with its error class, FAIL with the names of its failing lines,
or skipped for holding more than LEVEL_CAP closed-form levels.  Every
FAIL entry names the open ROADMAP items that own its lines.  A verdict that
differs from the map fails the test: a new failure, refusal or crash is
mended or left failing, and a FAIL that starts passing updates its entry,
so that each mend shows as a diff of the map.  To print the map of the
code at hand: python tests/test_verify_deck.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from diracwell import cli, spectrum, states
from diracwell.errors import SolverError
from diracwell.matching import square_well_secular

DECK = Path(__file__).parent / "data" / "verify_deck.json"
K_VALUES = (1e-12, 1e-6, 1e-2, 1.0, 30.0)
V0_VALUES = (-1e3, -1.0, 1e-6, 1.0, 1e2, 1e4, 1e6)
HALF_WIDTHS = (1e-3, 1.0, 10.0)
LEVEL_CAP = 3000  # closed_form_count above which a well is skipped
CONJUGATION = "rotated components are conjugate after phase fixing"
# the ROADMAP item that owns each line's known failures: the square well's
# conjugation defect is the closed-form states' (23), the residual's
# rounding is the relative bounds' (10)
LINE_ITEMS = {CONJUGATION: 23, "sampled states satisfy the first-order system": 10}


def closed_form_count(k, v0, half_width) -> int:
    """The crossings theta = pi/2 + n pi of the closed-form phase from
    n = 0 to the top of the band, as find_roots numbers its levels: about
    the half-waves of the highest state across the well.  0 where the
    count refuses, so that verify refuses alike."""
    secular = square_well_secular(k, v0, half_width)
    phase = getattr(secular.phase, "__wrapped__", secular.phase)
    try:
        *_, first, count = spectrum._level_ranges(lambda rows, eps: phase(eps), np.array([secular.lo]),
                                                  np.array([secular.hi]), secular.binds)
    except SolverError:
        return 0
    return int(first[0] + count[0])


def verdict(k, v0, half_width) -> dict:
    """The map entry of one well, without its items."""
    if closed_form_count(k, v0, half_width) > LEVEL_CAP:
        return {"verdict": "skipped"}
    try:
        failed = [name for name, ok, _ in cli._checks(k, v0, half_width) if not ok]
    except SolverError as exc:
        return {"verdict": "refused", "error": type(exc).__name__}
    return {"verdict": "FAIL", "lines": failed} if failed else {"verdict": "PASS"}


def deck() -> list[dict]:
    return [{"k": k, "v0": v0, "half_width": L, **verdict(k, v0, L)}
            for k in K_VALUES for v0 in V0_VALUES for L in HALF_WIDTHS]


def _without_items(entry: dict) -> dict:
    return {key: value for key, value in entry.items() if key != "items"}


def _recorded() -> list[dict]:
    return json.loads(DECK.read_text())


def test_every_well_keeps_its_verdict():
    recorded = _recorded()
    got = deck()
    assert [(e["k"], e["v0"], e["half_width"]) for e in got] == [
        (e["k"], e["v0"], e["half_width"]) for e in recorded]
    changed = [(want, now) for want, now in zip(recorded, got) if _without_items(want) != now]
    assert not changed, f"{len(changed)} verdict(s) differ from the map, e.g. {changed[:3]}"


def test_every_failure_names_its_items():
    failures = [e for e in _recorded() if e["verdict"] == "FAIL"]
    assert failures
    for entry in failures:
        assert entry["items"] == sorted({LINE_ITEMS[line] for line in entry["lines"]})
        assert set(entry["items"]) <= {9, 10, 23}


def test_psi2_scaled_inside_the_well_fails_passing_wells(monkeypatch):
    # item 10's corruption: every passing k = 1 well with a state fails,
    # the conjugation line among its lines, so the map no longer holds
    assemble = states.assemble_square_well_state

    def scaled(label, v0, half_width=1.0, points=4001):
        state = assemble(label, v0, half_width, points)
        inside = np.abs(state.x) < half_width
        return dataclasses.replace(state, psi2=np.where(inside, 1.001 * state.psi2, state.psi2))

    monkeypatch.setattr(states, "assemble_square_well_state", scaled)
    wells = [(e["k"], e["v0"], e["half_width"]) for e in _recorded()
             if e["verdict"] == "PASS" and e["k"] == 1.0]
    wells = [well for well in wells if len(spectrum.find_roots(square_well_secular(*well)))]
    assert len(wells) >= 5
    for well in wells:
        got = verdict(*well)
        assert got["verdict"] == "FAIL" and CONJUGATION in got["lines"], well


if __name__ == "__main__":
    entries = deck()
    for entry in entries:
        if entry["verdict"] == "FAIL":
            entry["items"] = sorted({LINE_ITEMS[line] for line in entry["lines"]})
    sys.stdout.write("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")  # one well a line
