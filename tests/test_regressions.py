"""Replays of counterexamples found by the exhaustive safety search.

Each ``CASES`` file under ``tests/scenarios`` is a search run (vehicles at
180, 178, 176 m and 10 m/s, scripted losses, 250 slots) that once ended in a
safety violation or a stall. ``icsim simulate`` must now finish every one of
them with exit code 0.

The ``FAULTS`` files replay protocol faults that are not fixed yet. Each is
a strict expected failure, so the fix that makes one pass must also move it
into ``CASES``.
"""

from pathlib import Path

import pytest

from icsim.cli import EXIT_OK, main

SCENARIOS = Path(__file__).parent / "scenarios"

CASES = {
    # H1R->H2L / H2R->H3L / H4R->H3L, F=2, no losses: the second round let
    # two cars proceed on announced arrival times they did not drive.
    "arrival_time_mismatch": "co-occupancy of S2",
    # H1R->H3L vs H4R->H3L, F=3: a car that fell back past its stop line
    # kept creeping into the box while the other had FALLBACK_GO.
    "fallback_overshoot": "co-occupancy of S2",
    # H1R->H3L / H2R->H3L / H3R->H2L, F=2, loss (3,3): a slow fallback car
    # braked towards its line for ~200 slots.
    "fallback_creep": "stall",
    # H1R->H3L / H2R->H4L / H3R->H1L, F=3, a 3-slot burst on vehicle 2 at
    # the second round's first exchange: the same slow-approach stall.
    "second_round_burst": "stall",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_counterexample_replays_cleanly(name, tmp_path):
    path = SCENARIOS / f"{name}.scenario.json"
    rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path)])
    assert rc == EXIT_OK, f"{name}: formerly {CASES[name]}, exit code {rc}"


FAULTS = {
    # kinematics.priority_decision compares each car only with the earliest
    # other arrival, so cars 1 and 4 both proceed and meet in S4 (exit 2).
    "fault_priority_min": "priority_decision compares each car only with the earliest arrival",
    # protocol._absorb lets car 2 join after cars 1 and 3 have exchanged ACKs
    # and decide on their stale ENTERs; cars 1 and 2 meet in S3 (exit 2).
    "fault_late_joiner": "_absorb counts ACKs of a round the late joiner was not part of",
    # _absorb drops car 2's late ENTER once car 3 has sent its ACK; cars 1
    # and 3 decide on different ENTER sets and wait for each other (exit 3).
    "fault_split_view": "_absorb drops an unlisted ENTER after the ACK: split ENTER sets",
}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=fault))
        for name, fault in sorted(FAULTS.items())
    ],
)
def test_known_fault_replays(name, tmp_path):
    path = SCENARIOS / f"{name}.scenario.json"
    rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path)])
    assert rc == EXIT_OK, f"{name}: {FAULTS[name]}, exit code {rc}"
