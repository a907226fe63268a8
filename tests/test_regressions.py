"""Replays of counterexamples, most of them found by the exhaustive safety
search.

Each ``CASES`` file under ``tests/scenarios`` is a run that once ended in a
safety violation or a stall: a search run (vehicles at 180, 178, 176 m and
10 m/s, scripted losses, 250 slots), or ``rest_start``. ``icsim simulate``
must now finish every one of them with exit code 0.

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
    # the bundled allloss with car 1 starting at rest (v 0, a 2): its stop at
    # the line regained at most its initial speed, 0, so it never got there.
    "rest_start": "stall",
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
    # H1R->H3L at 180 m and H2R->H4L at 176.5 m, both at 12 m/s, F=30, car 2
    # loses every message of slots 1-35: the round never completes, and a car
    # in an open round cruises, so both are still in V2V_ENTER when they
    # share S2 in slots 17-19 (exit 2); they fall back only at slots 33-34.
    "fault_open_round": "a car in an open ENTER round drives into the box",
    # _absorb drops car 2's late ENTER once car 3 has sent its ACK; cars 1
    # and 3 decide on different ENTER sets and wait for each other (exit 3).
    "fault_split_view": "_absorb drops an unlisted ENTER after the ACK: split ENTER sets",
    # two lossless cars at 3 m/s, F=3: H3R->H2L at 182 m turns left through
    # S3, S4 and S1, H1R->H2L at 175.85 m turns right into S1. Their taus,
    # 2.05 s apart, pass the tau_th test, so both take MAINCTRL at slot 4;
    # at 3 m/s their times in S1 still overlap, and they meet there from
    # slot 72 (exit 2).
    "fault_slow_pair": "tau_th separates arrival times, not per-cell occupancy windows",
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
