"""Start-grid blocks: lossless runs over grids of start positions and speeds.

Each block runs every start of its grid on a perfect channel with F = 3,
stops at the first run that is unsafe (two cars on one cell) or stalled (a
car not done within ``max_slots``) and names it; a block that passes prints
its run count. Both fail today on verdicts that are unsound with three cars
or at low speed, so each is a strict expected failure until the fix of
ROADMAP item 1 makes it pass.
"""

import itertools

import pytest
from test_acceptance import GEO, conflicting_pairs, conflicting_triples

from icsim.channel import Perfect
from icsim.sim import Scenario, VehicleSpec, run_scenario


def far_2_starts():
    """Each of the 75 conflicting triples with every car at x 60 or 110 m
    and 8 or 12 m/s: 4,800 starts of (route, x, v) per car."""
    cars = list(itertools.product((60.0, 110.0), (8.0, 12.0)))
    for routes in conflicting_triples():
        for starts in itertools.product(cars, repeat=3):
            yield tuple((r, x, v) for r, (x, v) in zip(routes, starts))


def slow_starts():
    """Each of the 17 conflicting pairs in both route roles, car 1 at 1-5
    m/s and car 2 at 1-14 m/s, whose arrivals at the centre at constant
    speed are 4 s and 4 s + gap away, in both orders: 19,040 starts."""
    for pair in conflicting_pairs():
        for routes in (pair, pair[::-1]):
            for v1, v2 in itertools.product(range(1, 6), range(1, 15)):
                for gap in (2.05, 2.5, 3.0, 4.0):
                    for taus in ((4.0, 4.0 + gap), (4.0 + gap, 4.0)):
                        yield tuple(
                            (r, GEO.x_s - v * tau, float(v))
                            for r, v, tau in zip(routes, (v1, v2), taus)
                        )


def run_block(starts, max_slots) -> int:
    runs = 0
    for runs, cars in enumerate(starts, 1):
        scenario = Scenario(
            vehicles=tuple(
                VehicleSpec(uid=uid, route=r, x=x, v=v, a=0.0)
                for uid, (r, x, v) in enumerate(cars, 1)
            ),
            geometry=GEO,
            channel=Perfect(),
            F=3,
            max_slots=max_slots,
        )
        trace = run_scenario(scenario, record=False)
        named = (runs, [f"{r.clane}->{r.nlane} at {x} m, {v} m/s" for r, x, v in cars])
        assert not trace.violations, (*named, "unsafe: (slot, cell, cars)", trace.violations[0])
        assert trace.summary["all_done"], (*named, "stalled")
    return runs


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="three-car verdicts that compare each car only with the earliest "
    "arrival let two cars share a cell (ROADMAP item 1): run 106 is the "
    "first of 150 unsafe runs",
)
def test_far_2_block():
    runs = run_block(far_2_starts(), max_slots=400)
    assert runs == 4_800
    print(f"far-2 start grid: {runs} runs safe and live")


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="tau_th separates arrival times, not per-cell occupancy windows, "
    "so slow cars share a cell (ROADMAP item 1): run 1 is the first of "
    "3,698 unsafe runs",
)
def test_slow_block():
    runs = run_block(slow_starts(), max_slots=1_500)
    assert runs == 19_040
    print(f"slow start grid: {runs} runs safe and live")
