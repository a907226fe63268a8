"""The three workloads: inputs built from a seed, one op, and the checks.

A round of a workload is its ops 0..len-1. ``run_op(i)`` is the timed call
into ``icsim``; ``check(i, result, first)`` verifies its output against the
benchmark's own computations in ``oracles`` and returns OK or FAILED (the
op failed and is counted so); ``finish()`` runs the checks that need a
whole round. A check that does not hold raises ``CheckError``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

import icsim.analytics
import icsim.cli
import icsim.sim
from icsim.channel import CorrelatedBurst, DistanceIID, Scripted
from icsim.kinematics import IntersectionGeometry, Route
from icsim.scenarios import bundled_scenario

import oracles as O


class CheckError(AssertionError):
    """An output of the program disagrees with the benchmark's oracle."""


def require(cond, *what):
    if not cond:
        raise CheckError(" ".join(str(w) for w in what))


OK, FAILED = "ok", "failed"


def _vehicle_delays(vehicles, done_slots, T):
    """done_slot*T minus the free-flow time, for each finished vehicle;
    ``vehicles`` are (uid, clane, nlane, x0, v0)."""
    return [
        done_slots[uid] * T - O.free_flow_s(cl, nl, x0, v0)
        for uid, cl, nl, x0, v0 in vehicles
        if done_slots.get(uid) is not None
    ]


# --- search ---------------------------------------------------------------


SEARCH_OPS = 1000  # sampled search runs in a round
SEARCH_RECORDED = 25  # of them re-run with recording on after the loop


class Search:
    """``run_scenario(record=False)`` on a stratified sample of the acceptance
    safety search: scripted losses, cars at 180/178/176 m and 10 m/s."""

    def __init__(self, seed: int, workdir: Path):
        two, three = O.search_blocks()
        require(len(O.conflicting_pairs()) == 17, "conflicting pairs")
        require(len(O.conflicting_triples()) == 75, "conflicting triples")
        require(sum(b.size for b in two) == 67_796, "two-vehicle scope")
        require(sum(b.size for b in three) == 52_926, "three-vehicle scope")
        blocks = two + three
        rng = random.Random(seed)
        geo = IntersectionGeometry()
        self.cases = []
        for block, r in O.stratified_sample(blocks, SEARCH_OPS, rng):
            pattern = block.pattern(r)
            vehicles = tuple(
                (uid, cl, nl, 180.0 - 2.0 * (uid - 1), 10.0)
                for uid, (cl, nl) in enumerate(block.routes, 1)
            )
            scenario = icsim.sim.Scenario(
                vehicles=tuple(
                    icsim.sim.VehicleSpec(uid=u, route=Route(cl, nl), x=x, v=v, a=0.0)
                    for u, cl, nl, x, v in vehicles
                ),
                geometry=geo,
                channel=Scripted(losses=frozenset(pattern)),
                F=block.F,
                max_slots=250,
                seed=0,
            )
            self.cases.append((scenario, block, vehicles))
        self.delays: list[float] = []

    def __len__(self):
        return len(self.cases)

    def run_op(self, i):
        return icsim.sim.run_scenario(self.cases[i][0], record=False)

    def work(self, i, trace) -> int:
        return trace.slots_run * len(self.cases[i][2])

    def check(self, i, trace, first: bool) -> str:
        _, block, vehicles = self.cases[i]
        F = block.F
        require(not trace.violations, "co-occupancy", i, trace.violations)
        require(trace.summary["all_done"], "not all done", i)
        exchanging = set()
        for slot, uid, event in trace.events:
            if slot > block.window_end:
                break
            if event in ("SWITCH_V2V", "REENTER"):
                exchanging.add(uid)
            elif event in ("MAINCTRL", "SWITCH_SD"):
                exchanging.discard(uid)
        require(not exchanging, "still exchanging when the loss window closes", i)
        require(trace.summary["mixed_mode_window"] <= 2 * F + 2, "mixed window", i)
        if first:
            done = {int(u): v["done_slot"] for u, v in trace.summary["vehicles"].items()}
            self.delays += _vehicle_delays(vehicles, done, trace.scenario.T)
        return OK

    def finish(self) -> None:
        step = len(self.cases) // SEARCH_RECORDED
        for scenario, _, vehicles in self.cases[::step]:
            trace = icsim.sim.run_scenario(scenario)
            routes = {u: (cl, nl) for u, cl, nl, _, _ in vehicles}
            rows = [(r.slot, r.uid, r.x) for r in trace.rows]
            require(len(rows) == trace.slots_run * len(vehicles), "row count")
            require(O.co_occupancy(rows, routes) == [], "recorded co-occupancy")

    def sim_delay_s(self) -> float:
        return sum(self.delays) / len(self.delays)


# --- simulate ---------------------------------------------------------------

SIM_GENERATED = 288  # seeded scenarios: each of 3 car counts x 8 channels x 3 F four times
SIM_CANDIDATES = 32  # fixed candidates for each place of the design; the seed picks one

# Inputs that fail on every run because of a fault in the program (see the
# README); they do not depend on the seed and count as failed ops.
FAULT_SCENARIOS = {
    # kinematics.priority_decision compares each car only with the earliest
    # other arrival: cars 1 and 4 both proceed and meet in S4.
    "fault_priority_min": (
        [("H3R", "H2L", 99.8, 10.05), ("H2R", "H3L", 95.6, 11.91),
         ("H1R", "H3L", 106.9, 12.42), ("H4R", "H2L", 93.9, 10.45)],
        {"type": "perfect"},
    ),
    # Car 2 joins after cars 1 and 3 have exchanged ACKs and decides on
    # their stale ENTERs; cars 1 and 2 both proceed and meet in S3.
    "fault_late_joiner": (
        [("H3R", "H1L", 94.4, 11.17), ("H1R", "H4L", 91.5, 12.02),
         ("H2R", "H4L", 90.8, 10.76)],
        {"type": "perfect"},
    ),
    # Car 3 cannot sense car 2 on the opposite approach and drops its late
    # ENTER once it has sent an ACK; cars 1 and 3 decide on different ENTER
    # sets, each waits for the other, and car 2 falls back: a stall.
    "fault_split_view": (
        [("H3R", "H1L", 101.6, 11.3), ("H4R", "H1L", 102.8, 12.05),
         ("H2R", "H4L", 97.0, 10.18)],
        {"type": "scripted", "all_lost": [],
         "losses": [[1, s] for s in range(2, 9)] + [[2, 10], [2, 11], [3, 2]]},
    ),
}

CHANNELS = tuple(
    (lam, xi)
    for lam in (icsim.analytics.DECAY_OPEN_FIELD, icsim.analytics.DECAY_HARSH)
    for xi in (None, 0.5, 0.7, 0.9)
)


def scenario_json(cars, channel: dict, F: int = 30, seed: int = 0) -> dict:
    return {
        "schema": 1,
        "T": O.T,
        "F": F,
        "seed": seed,
        "geometry": {"x_s": O.X_S, "w": O.W},
        "channel": channel,
        "vehicles": [
            {"uid": u, "clane": cl, "nlane": nl, "x": x, "v": v, "a": 0.0}
            for u, (cl, nl, x, v) in enumerate(cars, 1)
        ],
    }


def generated_scenario(rng: random.Random, k: int) -> dict:
    """Scenario ``k`` of a balanced design: 2-4 cars on distinct approaches
    with random routes, 90-110 m out at 10-13 m/s; the car count, the
    channel and F cycle so that every round holds each combination once."""
    n = 2 + k % 3
    lam, xi = CHANNELS[(k // 3) % len(CHANNELS)]
    F = (8, 15, 30)[(k // 24) % 3]
    cars = []
    for a in rng.sample(range(4), n):
        cl, nl = O.route(a, rng.randint(1, 3))
        cars.append((cl, nl, round(rng.uniform(90, 110), 1), round(rng.uniform(10, 13), 2)))
    channel = (
        {"type": "distance_iid", "lambda": lam}
        if xi is None
        else {"type": "correlated", "lambda": lam, "xi": xi}
    )
    return scenario_json(cars, channel, F, rng.randrange(1 << 31))


def candidate(k: int, j: int) -> dict:
    """Candidate ``j`` for place ``k`` of the seeded design; it does not
    depend on the seed."""
    return generated_scenario(random.Random(f"simulate/{k}/{j}"), k)


# (k, j): candidates that exit 2 or 3 on every run, by the faults that
# FAULT_SCENARIOS show (``bench/scan.py`` finds them; see the README).
# A seeded op that fails would fail on some seeds only, so these are never
# drawn.
FAILING_CANDIDATES = frozenset({
    (10, 17), (13, 22), (14, 21), (19, 21), (37, 13), (38, 17), (40, 3), (40, 14),
    (41, 21), (49, 12), (49, 30), (53, 12), (59, 3), (59, 31), (61, 3), (61, 28),
    (62, 9), (64, 19), (65, 29), (71, 27), (73, 30), (74, 0), (76, 10), (77, 8),
    (86, 25), (95, 16), (101, 2), (107, 3), (109, 8), (110, 14), (112, 12), (124, 22),
    (124, 27), (125, 13), (125, 19), (140, 29), (148, 30), (151, 8), (152, 11), (158, 24),
    (160, 10), (169, 31), (170, 4), (170, 8), (170, 16), (173, 13), (175, 2), (176, 25),
    (176, 29), (179, 13), (181, 9), (197, 4), (197, 20), (200, 1), (200, 2), (200, 23),
    (205, 23), (218, 4), (218, 27), (230, 27), (236, 25), (247, 26), (248, 0), (251, 19),
    (251, 27), (256, 25), (260, 31), (262, 11), (263, 15), (266, 14), (274, 26), (277, 2),
    (277, 24), (280, 16), (280, 28),
})


def _longest_burst(losses: frozenset) -> int:
    """Most consecutive slots any one receiver loses."""
    best = 0
    for uid, slot in losses:
        if (uid, slot - 1) not in losses:  # a burst starts here
            n = 1
            while (uid, slot + n) in losses:
                n += 1
            best = max(best, n)
    return best


class Simulate:
    """``icsim simulate --scenario <file> --out <dir>`` through ``cli.main``
    on the bundled scenarios, the fault scenarios and seeded ones."""

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir
        (workdir / "in").mkdir(parents=True, exist_ok=True)
        # per op: the --scenario argument, and the vehicles (uid, clane,
        # nlane, x0, v0), T, F and scripted losses the checks need
        self.refs: list[str] = []
        self.meta: list[dict] = []
        for name in ("fig5a", "fig5b", "fig5c", "fig5d", "allloss"):
            s = bundled_scenario(name)
            self._add(name, {
                "vehicles": [(v.uid, v.route.clane, v.route.nlane, v.x, v.v) for v in s.vehicles],
                "T": s.T,
                "F": s.F,
                "losses": s.channel.losses if isinstance(s.channel, Scripted) else frozenset(),
            })
        for name, (cars, channel) in FAULT_SCENARIOS.items():
            self._add(*self._write(name, scenario_json(cars, channel)))
        rng = random.Random(seed)
        for k in range(SIM_GENERATED):
            j = rng.choice([j for j in range(SIM_CANDIDATES) if (k, j) not in FAILING_CANDIDATES])
            self._add(*self._write(f"gen{k:03d}", candidate(k, j)))
        self.digests: dict[int, tuple] = {}
        self.delays: list[float] = []

    def __len__(self):
        return len(self.refs)

    def _add(self, ref: str, meta: dict) -> None:
        self.refs.append(ref)
        self.meta.append(meta)

    def _write(self, name: str, data: dict) -> tuple[str, dict]:
        path = self.dir / "in" / f"{name}.scenario.json"
        path.write_text(json.dumps(data, indent=1))
        vehicles = [(v["uid"], v["clane"], v["nlane"], v["x"], v["v"]) for v in data["vehicles"]]
        return str(path), {"vehicles": vehicles, "T": data["T"], "F": data["F"], "losses": frozenset()}

    def _out(self, i) -> Path:
        return self.dir / "out" / str(i)

    def run_op(self, i) -> int:
        return icsim.cli.main(
            ["simulate", "--scenario", self.refs[i], "--out", str(self._out(i))]
        )

    def outputs(self, i) -> tuple[bytes, bytes]:
        out = self._out(i)
        return (out / "trace.csv").read_bytes(), (out / "summary.json").read_bytes()

    def work(self, i, rc) -> int:
        return self.digests[i][2]

    def check(self, i, rc, first: bool) -> str:
        trace_csv, summary_json = self.outputs(i)
        failed = rc in (icsim.cli.EXIT_SAFETY, icsim.cli.EXIT_LIVENESS)
        require(rc == icsim.cli.EXIT_OK or failed, self.refs[i], "exit code", rc)
        digest = hashlib.sha256(trace_csv + b"\0" + summary_json).digest()
        if not first:
            require(self.digests[i][:2] == (rc, digest), self.refs[i], "outputs differ between rounds")
            return FAILED if failed else OK
        meta = self.meta[i]
        summary = json.loads(summary_json)
        n = len(meta["vehicles"])
        self.digests[i] = (rc, digest, summary["slots_run"] * n)
        rows = self._check_rows(i, trace_csv.decode())
        routes = {u: (cl, nl) for u, cl, nl, _, _ in meta["vehicles"]}
        require(len(rows) == summary["slots_run"] * n, self.refs[i], "row count")
        unsafe = O.co_occupancy(rows, routes) != []
        require(unsafe == (rc == icsim.cli.EXIT_SAFETY), self.refs[i], "co-occupancy vs exit", rc)
        if not unsafe:
            require(summary["all_done"] == (rc == icsim.cli.EXIT_OK), self.refs[i], "liveness vs exit")
        if meta["losses"] and self.refs[i].startswith("fig5"):
            want = O.enter_delay(meta["F"], _longest_burst(meta["losses"]))
            got = [v["enter_delay"] for v in summary["vehicles"].values()]
            require(got == [want] * n, self.refs[i], "enter_delay", got, want)
        if not failed:
            done = {int(u): v["done_slot"] for u, v in summary["vehicles"].items()}
            self.delays += _vehicle_delays(meta["vehicles"], done, meta["T"])
        return FAILED if failed else OK

    def _check_rows(self, i, text):
        """Slot kinematics of every row: x' = x + vT + aT^2/2, v' = v + aT,
        v >= 0; a braking slot that would cross v = 0 ends at v = 0 instead
        (the applied acceleration is then -v/T)."""
        meta = self.meta[i]
        T = meta["T"]
        state = {u: (x, v) for u, _, _, x, v in meta["vehicles"]}
        rows = []
        for r in csv.DictReader(text.splitlines()):
            uid, x1, v1, a = int(r["uid"]), float(r["x"]), float(r["v"]), float(r["a"])
            x0, v0 = state[uid]
            if v1 == 0.0 and v0 + a * T <= 1e-12:
                a = -v0 / T
            tol = 1e-9 * max(1.0, abs(x1))
            require(abs(x0 + v0 * T + 0.5 * a * T * T - x1) <= tol, self.refs[i], "x step", r)
            require(v1 >= 0.0, self.refs[i], "negative speed", r)
            require(abs(v0 + a * T - v1) <= 1e-9, self.refs[i], "v step", r)
            state[uid] = (x1, v1)
            rows.append((int(r["slot"]), uid, x1))
        return rows

    def finish(self) -> None:
        pass

    def sim_delay_s(self) -> float:
        return sum(self.delays) / len(self.delays)


# --- curves -----------------------------------------------------------------

CURVE_F = (2, 8, 15, 30)  # every channel gets one curve for each F
CURVE_POINTS = 12  # distances per curve, one in each twelfth of 0-500 m
MC_TRIALS = 2_000  # numpy work the reference kernel does not track stays a small share
PULL_BOUND = 6.0  # standard errors; a correct program exceeds it ~1e-9 of the time


class Curves:
    """One point of the delay and usage curves: ``expected_enter_delay``,
    ``v2v_probability`` for every F' <= F and ``monte_carlo_enter_delay``."""

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.points = []
        curves = [(lam, xi, F) for lam, xi in CHANNELS for F in CURVE_F]
        for c, (lam, xi, F) in enumerate(curves):
            model = DistanceIID(lam) if xi is None else CorrelatedBurst(lam, xi)
            step = 500.0 / CURVE_POINTS
            for j in range(CURVE_POINTS):
                d = round(rng.uniform(j * step, (j + 1) * step), 1)
                self.points.append((c, lam, xi, F, d, model, rng.randrange(1 << 31)))
        # fill the per-F table of simulated delays that monte_carlo caches,
        # from empty, so that every set-up does the same work
        icsim.analytics._simulated_delay_by_burst.cache_clear()
        for F in sorted({p[3] for p in self.points}):
            icsim.analytics.monte_carlo_enter_delay(DistanceIID(0.001), 100.0, F, 2, 0)
        self.first: dict[int, tuple] = {}

    def __len__(self):
        return len(self.points)

    def run_op(self, i):
        _, lam, xi, F, d, model, seed = self.points[i]
        an = icsim.analytics
        p = math.exp(-lam * d)
        return (
            an.expected_enter_delay(p, F, xi),
            [an.v2v_probability(p, f, xi) for f in range(F + 1)],
            an.monte_carlo_enter_delay(model, d, F, MC_TRIALS, seed),
        )

    def work(self, i, result) -> int:
        return MC_TRIALS

    def check(self, i, result, first: bool) -> str:
        if not first:
            require(result == self.first[i], "curve point changed between rounds", i)
            return OK
        self.first[i] = result
        _, lam, xi, F, d, _, _ = self.points[i]
        p = math.exp(-lam * d)
        expected, usage, (mean, _) = result
        want = O.expected_delay(p, F, xi)
        require(abs(expected - want) <= 1e-9 * want, "expected delay", i, expected, want)
        ws = [O.burst_weight(p, xi, m) for m in range(F + 1)]
        var = sum(w * (O.enter_delay(F, m) - want) ** 2 for m, w in enumerate(ws)) / sum(ws)
        bound = PULL_BOUND * math.sqrt(var / MC_TRIALS) + 1e-12
        require(abs(mean - want) <= bound, "Monte Carlo pull", i, mean, want, bound)
        for f, u in enumerate(usage):
            require(abs(u - O.v2v_usage(p, f, xi)) <= 1e-12, "usage", i, f, u)
        require(all(b >= a - 1e-15 for a, b in zip(usage, usage[1:])), "usage not monotone in F", i)
        return OK

    def finish(self) -> None:
        by_curve: dict[int, list] = {}
        for i, pt in enumerate(self.points):
            by_curve.setdefault(pt[0], []).append((pt[4], self.first[i][0]))
        for pts in by_curve.values():
            delays = [e for _, e in sorted(pts)]
            require(all(b >= a - 1e-12 for a, b in zip(delays, delays[1:])), "delay not monotone in distance")
        anchor = icsim.analytics.v2v_probability(
            math.exp(-icsim.analytics.DECAY_HARSH * 400.0), 15, 0.9
        )
        require(0.945 <= anchor <= 0.955, "V2V anchor", anchor)

    def sim_delay_s(self) -> float:
        """Mean Monte Carlo consensus delay of the round's points, in s."""
        return O.T * sum(r[2][0] for r in self.first.values()) / len(self.first)


WORKLOADS = {"search": Search, "simulate": Simulate, "curves": Curves}
