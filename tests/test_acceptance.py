"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The exhaustive safety search runs each effective loss set once, so
the whole suite, search included, runs in well under a minute.
"""

import itertools
import math
import random
import time
from dataclasses import replace

import pytest

from icsim.analytics import (
    DECAY_HARSH,
    DECAY_OPEN_FIELD,
    expected_enter_delay,
    monte_carlo_enter_delay,
    v2v_probability,
)
from icsim.channel import CorrelatedBurst, DistanceIID, Scripted, pdr
from icsim.cli import EXIT_OK, main
from icsim.kinematics import IntersectionGeometry, Route, collision_area
from icsim.protocol import closed_form_enter_delay, simulate_enter_round
from icsim.scenarios import bundled_scenario
from icsim.sim import (
    Scenario,
    VehicleSpec,
    check_safety,
    run_scenario,
    write_trace_csv,
)

GEO = IntersectionGeometry(x_s=200.0, w=3.5)
LANES = ("H1R", "H2R", "H3R", "H4R")
EXITS = ("H1L", "H2L", "H3L", "H4L")


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def route_for(approach: int, turn: int) -> Route:
    return Route(LANES[approach], EXITS[(approach + turn) % 4])


def conflicting_pairs() -> list[tuple[Route, Route]]:
    """Every conflicting two-route combination, up to the rotational
    symmetry of the occupancy table (first vehicle fixed on approach 0)."""
    pairs = []
    for delta in (1, 2, 3):
        for t0 in (1, 2, 3):
            for t1 in (1, 2, 3):
                r0, r1 = route_for(0, t0), route_for(delta, t1)
                col = collision_area({1: r0, 2: r1}, GEO)
                if col[1]:
                    pairs.append((r0, r1))
    return pairs


def conflicting_triples() -> list[tuple[Route, Route, Route]]:
    triples = []
    for approaches in ((0, 1, 2), (0, 1, 3), (0, 2, 3)):
        for turns in itertools.product((1, 2, 3), repeat=3):
            routes = tuple(route_for(k, t) for k, t in zip(approaches, turns))
            col = collision_area({i: r for i, r in enumerate(routes, 1)}, GEO)
            if any(col.values()):
                triples.append(routes)
    return triples


def search_scenario(routes, losses, F) -> Scenario:
    vehicles = tuple(
        VehicleSpec(uid=i, route=r, x=180.0 - 2.0 * (i - 1), v=10.0, a=0.0)
        for i, r in enumerate(routes, 1)
    )
    return Scenario(
        vehicles=vehicles,
        geometry=GEO,
        channel=Scripted(losses=frozenset(losses)),
        F=F,
        max_slots=250,
        seed=0,
    )


def loss_patterns(uids, first_slot, window, max_losses):
    """All loss patterns with up to ``max_losses`` total losses over the
    (receiver, slot) positions of the given window."""
    positions = [
        (u, s) for u in uids for s in range(first_slot, first_slot + window)
    ]
    for k in range(0, max_losses + 1):
        yield from itertools.combinations(positions, k)


class TestCriterion1TimeDiagrams:
    def test_slot_exact_reproduction(self):
        start = time.perf_counter()
        cases = [
            ((0, 0), set(), 3),
            ((0, 1), {(2, 1)}, 5),
            ((0, 3), {(2, 1), (2, 2), (2, 3)}, 7),
            ((2, 2), {(1, 1), (1, 2), (2, 1), (2, 2)}, 5),
        ]
        for label, losses, t_en in cases:
            res = simulate_enter_round(2, F=8, losses=losses)
            assert res.resolution_slot() == t_en, label
            assert res.agreed(), f"{label}: both vehicles must initiate together"
        # the same scenarios through the full engine
        for name, t_en in (("fig5b", 5), ("fig5c", 7), ("fig5d", 5)):
            trace = run_scenario(bundled_scenario(name))
            mc = trace.summary["vehicles"]
            assert mc["1"]["enter_delay"] == mc["2"]["enter_delay"] == t_en
            assert mc["1"]["mainctrl_slots"] == mc["2"]["mainctrl_slots"]
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"criterion demands sub-second runtime, took {elapsed:.2f}s"
        report(1, f"four scripted scenarios give 3/5/7/5 slot-exact ({elapsed*1e3:.0f} ms)")


class TestCriterion2ClosedFormEquivalence:
    def test_exhaustive_single_bursts(self):
        start = time.perf_counter()
        checked = 0
        for F in range(2, 9):
            for f in range(0, F + 1):
                res = simulate_enter_round(
                    2, F=F, losses={(2, s) for s in range(1, f + 1)}
                )
                want = closed_form_enter_delay(F, {1: 0, 2: f})
                assert res.resolution_slot() == want, (F, f)
                checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        report(2, f"{checked} (F, burst) cases match min(F, 2*ceil(f/2))+3 exactly")


class Asked:
    """A channel that answers as ``scripted`` and records, in the order asked,
    each (receiver, slot) of the loss window that the engine asks it about.
    ``sample_delivery`` asks only for a listening receiver with a sender in
    range, so a scripted loss at any other position has no effect."""

    uses_rng = False

    def __init__(self, scripted: Scripted, window: range):
        self.scripted = scripted
        self.window = window
        self.asked: list[tuple[int, int]] = []

    def delivers(self, receiver, slot, links, prior_lost, rng):
        if slot in self.window:
            self.asked.append((receiver, slot))
        return self.scripted.delivers(receiver, slot, links, prior_lost, rng)


def loss_window(F) -> range:
    """The slots in which the search places losses: F+5 slots from slot 2."""
    return range(2, F + 7)


def run_asked(routes, losses, F):
    """The unrecorded run of ``losses`` and the positions of the loss window
    that its engine asked about, in (slot, uid) order."""
    channel = Asked(Scripted(losses=frozenset(losses)), loss_window(F))
    scenario = replace(search_scenario(routes, (), F), channel=channel)
    return run_scenario(scenario, record=False), channel.asked


def effective_runs(routes, F, max_losses):
    """Yield ``(losses, trace)`` once per effective loss set of at most
    ``max_losses`` losses in the loss window: a set whose every loss hits a
    receiver the engine asked about. Depth first from the empty set, each
    run from slot 1; a set's children add one position its run asked about
    after its last loss in (slot, uid) order. A slot's answers reach the
    cars only in the next slot, so which positions of a slot are asked does
    not depend on the answers given in it. A raw pattern's effective set is
    the part of it that its run asked about, and the two runs are the same,
    since they agree up to every loss that takes effect."""
    stack = [()]
    while stack:
        losses = stack.pop()
        trace, asked = run_asked(routes, losses, F)
        yield losses, trace
        if len(losses) < max_losses:
            last = losses[-1][::-1] if losses else (0, 0)
            stack.extend(losses + (p,) for p in asked if p[::-1] > last)


def raw_pattern_count(n_uids, F, max_losses) -> int:
    """How many patterns ``loss_patterns`` gives for one block."""
    positions = n_uids * len(loss_window(F))
    return sum(math.comb(positions, k) for k in range(max_losses + 1))


REPRESENTATIVE = (route_for(0, 2), route_for(1, 2), route_for(2, 2))


def two_car_blocks() -> list:
    """(routes, F, max_losses) of the two-car search: every conflicting pair
    with up to 4 losses."""
    return [(routes, F, 4) for F in (2, 3) for routes in conflicting_pairs()]


def three_car_blocks() -> list:
    """(routes, F, max_losses) of the three-car search: every conflicting
    triple with up to 2 losses, then one representative triple with up to 4."""
    blocks = [(routes, F, 2) for F in (2, 3) for routes in conflicting_triples()]
    return blocks + [(REPRESENTATIVE, 3, 4)]


def outcome(trace) -> tuple:
    return trace.events, trace.summary, trace.violations, trace.slots_run


class TestCriterion3And4SafetySearch:
    """Exhaustive small-model safety search.

    Scope enumerated: two vehicles over every conflicting route pair (up to
    table rotation) with every loss pattern of at most 4 losses in the
    window where messages can be in flight (the round provably resolves
    within F+4 slots of the first transmission; the window extends one slot
    past that, and the search asserts no vehicle is still exchanging when
    it closes). Three vehicles run every conflicting maneuver triple with
    patterns of up to 2 losses, one triple additionally at up to 4, and a
    second-round burst probe. Losses landing in a later round face the same
    machine with fresh counters, which the first-round enumeration already
    covers; the probe spot-checks that argument.

    Each raw pattern is covered by one run of its effective loss set, the
    losses that hit a receiver with a message in flight (``effective_runs``);
    ``test_raw_patterns_run_as_their_effective_sets`` checks that on a
    seeded sample of raw patterns.
    """

    def _search(self, blocks) -> dict:
        stats = {"raw": 0, "runs": 0, "fallback_traces": 0, "last_resolution": 0}
        for routes, F, max_losses in blocks:
            stats["raw"] += raw_pattern_count(len(routes), F, max_losses)
            for losses, trace in effective_runs(routes, F, max_losses):
                self._check(routes, losses, F, trace, stats)
        return stats

    def _check(self, routes, losses, F, trace, stats):
        assert not trace.violations, (routes, losses, F, trace.violations)
        assert trace.summary["all_done"], (routes, losses, F, "liveness")
        # no vehicle is still exchanging when the loss window closes
        window_end = loss_window(F)[-1]
        exchanging = {}
        for slot, uid, name in trace.events:
            if slot > window_end:
                break
            if name in ("SWITCH_V2V", "REENTER"):
                exchanging[uid] = slot
            elif name in ("MAINCTRL", "SWITCH_SD"):
                exchanging.pop(uid, None)
                stats["last_resolution"] = max(stats["last_resolution"], slot - F)
        assert not exchanging, (routes, losses, F, "exchanging", exchanging)
        fell = any(
            v["fallback_slot"] is not None
            for v in trace.summary["vehicles"].values()
        )
        if fell:
            stats["fallback_traces"] += 1
            assert trace.summary["mixed_mode_window"] <= 2 * F + 2, (routes, losses, F)
        stats["runs"] += 1

    def test_two_vehicle_exhaustive(self):
        pairs = conflicting_pairs()
        stats = self._search(two_car_blocks())
        report(
            3,
            f"two-vehicle search: {stats['raw']} raw loss patterns over "
            f"{len(pairs)} conflicting pairs in {stats['runs']} runs, one per "
            f"effective loss set, zero co-occupancy violations, every first "
            f"round resolved by slot F+{stats['last_resolution']}",
        )
        report(
            4,
            f"consistency window <= 2F+2 held in all "
            f"{stats['fallback_traces']} fallback traces (two-vehicle)",
        )

    def test_three_vehicle_search(self):
        triples = conflicting_triples()
        stats = self._search(three_car_blocks())
        report(
            3,
            f"three-vehicle search: {stats['raw']} raw loss patterns over "
            f"{len(triples)} conflicting triples in {stats['runs']} runs, one "
            f"per effective loss set, zero co-occupancy violations, every "
            f"first round resolved by slot F+{stats['last_resolution']}",
        )

    def test_raw_patterns_run_as_their_effective_sets(self):
        # a seeded sample of blocks of every kind, and of raw patterns in each
        rng = random.Random(15)
        three = three_car_blocks()
        blocks = [*rng.sample(two_car_blocks(), 10), *rng.sample(three[:-1], 10), three[-1]]
        sampled = 0
        for routes, F, max_losses in blocks:
            ran = {
                frozenset(losses): outcome(trace)
                for losses, trace in effective_runs(routes, F, max_losses)
            }
            uids = range(1, len(routes) + 1)
            patterns = list(loss_patterns(uids, 2, len(loss_window(F)), max_losses))
            for pattern in rng.sample(patterns, 48):
                plain = run_scenario(search_scenario(routes, set(pattern), F), record=False)
                trace, asked = run_asked(routes, pattern, F)
                effective = frozenset(pattern) & frozenset(asked)
                assert effective in ran, (routes, pattern, F)
                assert outcome(plain) == outcome(trace) == ran[effective], (routes, pattern, F)
                sampled += 1
        report(
            3,
            f"{sampled} sampled raw loss patterns run as their effective "
            f"sets, each of which the search runs",
        )

    def test_second_round_burst_probe(self):
        # bursts anchored at the second round's first exchange
        routes = REPRESENTATIVE
        clean = run_scenario(search_scenario(routes, set(), 3))
        reenter = [s for s, _, name in clean.events if name == "REENTER"]
        assert reenter, "scenario must produce a second round"
        first = min(reenter) + 1
        count = 0
        for uid in (1, 2, 3):
            for f in range(0, 5):
                losses = {(uid, s) for s in range(first, first + f)}
                trace = run_scenario(search_scenario(routes, losses, 3), record=False)
                assert not trace.violations, (uid, f)
                assert trace.summary["all_done"], (uid, f)
                count += 1
        report(3, f"second-round burst probe: {count} runs safe and live")


class TestCriterion5MonteCarloCrossValidation:
    def test_burst_law_sampler_matches_weighted_average(self):
        F = 30
        n_trials = 100_000
        checked = 0
        worst = 0.0
        for lam in (DECAY_OPEN_FIELD, DECAY_HARSH):
            for d in (100.0, 200.0, 300.0, 400.0):
                for xi in (None, 0.5, 0.7, 0.9):
                    p = pdr(d, lam)
                    model = DistanceIID(lam) if xi is None else CorrelatedBurst(lam, xi)
                    mean, err = monte_carlo_enter_delay(
                        model, d, F, n_trials, seed=1234 + checked
                    )
                    analytic = expected_enter_delay(p, F, xi)
                    sigma = max(err, 1e-12)
                    pull = abs(mean - analytic) / sigma
                    assert pull <= 3.0, (lam, d, xi, mean, analytic, pull)
                    worst = max(worst, pull)
                    checked += 1
        report(
            5,
            f"{checked} grid points, {n_trials} trials each; worst pull "
            f"{worst:.2f} standard errors (<= 3)",
        )


class TestCriterion6V2VProbabilityAnchor:
    def test_anchor_and_shape(self):
        p = pdr(400.0, DECAY_HARSH)
        anchor = v2v_probability(p, 15, 0.9)
        assert 0.945 <= anchor <= 0.955, anchor
        for lam in (DECAY_OPEN_FIELD, DECAY_HARSH):
            for d in (200.0, 400.0):
                for xi in (None, 0.5, 0.7, 0.9):
                    curve = [
                        v2v_probability(pdr(d, lam), F, xi) for F in range(0, 31)
                    ]
                    assert all(
                        b >= a - 1e-15 for a, b in zip(curve, curve[1:])
                    ), "nondecreasing in F"
        for d in (200.0, 400.0):
            for xi in (None, 0.5, 0.7, 0.9):
                for F in range(0, 31):
                    assert v2v_probability(
                        pdr(d, DECAY_OPEN_FIELD), F, xi
                    ) >= v2v_probability(pdr(d, DECAY_HARSH), F, xi)
        report(6, f"usage probability at the reference point is {anchor:.4f}")


class TestCriterion7DelayCurveShape:
    def test_sweep_output_orderings(self, tmp_path):
        rc = main(
            [
                "sweep-delay",
                "--out",
                str(tmp_path),
                "--d-min",
                "0",
                "--d-max",
                "500",
                "--d-step",
                "20",
                "--xi",
                "iid,0.5,0.7,0.9",
            ]
        )
        assert rc == EXIT_OK
        import csv

        with open(tmp_path / "delay_curve.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        curves: dict[tuple[str, str], dict[float, float]] = {}
        for r in rows:
            curves.setdefault((r["environment"], r["xi"]), {})[
                float(r["distance_m"])
            ] = float(r["expected_delay_slots"])
        for (env, xi), pts in curves.items():
            ordered = [pts[d] for d in sorted(pts)]
            assert ordered == sorted(ordered), (env, xi, "monotone in distance")
        for xi in ("iid", "0.5", "0.7", "0.9"):
            for d, v in curves[("open-field", xi)].items():
                assert v <= curves[("harsh", xi)][d] + 1e-12
        for env in ("open-field", "harsh"):
            for d, v in curves[(env, "0.5")].items():
                if d > 0:
                    assert curves[(env, "0.9")][d] > v
        report(7, f"{len(curves)} delay curves satisfy all three orderings")


class TestCriterion8LivenessUnderBlackout:
    def test_everyone_crosses_via_fallback(self, tmp_path):
        trace = run_scenario(bundled_scenario("allloss"))
        assert trace.summary["all_done"]
        assert check_safety(trace) == []
        assert all(
            v["fallback_slot"] is not None
            for v in trace.summary["vehicles"].values()
        )
        rc = main(["simulate", "--scenario", "allloss", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        done = [
            v["done_slot"] for v in trace.summary["vehicles"].values()
        ]
        report(
            8,
            f"total blackout: both vehicles crossed by slot {max(done)}; "
            f"simulate exits 0",
        )


class TestCriterion9Determinism:
    @pytest.mark.parametrize("name", ["fig5a", "fig5b", "fig5c", "fig5d", "allloss"])
    def test_bundled_scenarios_byte_identical(self, name, tmp_path):
        blobs = []
        for i in (0, 1):
            trace = run_scenario(bundled_scenario(name))
            p = tmp_path / f"{i}.csv"
            write_trace_csv(trace, p)
            blobs.append(p.read_bytes())
        assert blobs[0] == blobs[1]

    def test_random_channel_byte_identical(self, tmp_path):
        scenario = Scenario(
            vehicles=(
                VehicleSpec(uid=1, route=Route("H1R", "H3L"), x=102.0, v=13.0, a=0.0),
                VehicleSpec(uid=2, route=Route("H2R", "H4L"), x=100.0, v=13.0, a=0.0),
            ),
            channel=DistanceIID(lam=0.004),
            F=8,
            max_slots=600,
            seed=7,
        )
        blobs = []
        for i in (0, 1):
            trace = run_scenario(scenario)
            p = tmp_path / f"{i}.csv"
            write_trace_csv(trace, p)
            blobs.append(p.read_bytes())
        assert blobs[0] == blobs[1]
        report(9, "identical seeds give byte-identical traces (scripted and random)")
