"""Engine-level tests: scripted scenario reproduction, safety and liveness
checking, determinism, kinematic exactness."""

import dataclasses
import itertools
import math

import pytest
from test_golden import _reference

import icsim.sim
from icsim.channel import DistanceIID, Perfect, Scripted
from icsim.kinematics import EXIT_LANES, OCCUPANCY, IntersectionGeometry, Route, path_cell
from icsim.protocol import Action, Mode, SensorSnapshot, planned_tau
from icsim.scenarios import bundled_scenario, resolve_scenario
from icsim.sim import (
    STOP_MARGIN,
    Scenario,
    ScenarioError,
    SimTrace,
    SlotRecord,
    TRACE_COLUMNS,
    VehicleSpec,
    _apply_control,
    _exit_rule,
    _HEADINGS,
    _integrate,
    _position_2d,
    _sense,
    _Vehicle,
    check_safety,
    run_scenario,
)


def two_car(channel, F=8, max_slots=400, seed=0, v=13.0):
    return Scenario(
        vehicles=(
            VehicleSpec(uid=1, route=Route("H1R", "H3L"), x=102.0, v=v, a=0.0),
            VehicleSpec(uid=2, route=Route("H2R", "H4L"), x=100.0, v=v, a=0.0),
        ),
        channel=channel,
        F=F,
        max_slots=max_slots,
        seed=seed,
    )


class TestScriptedScenarios:
    def test_first_round_resolution_slot(self):
        trace = run_scenario(bundled_scenario("fig5a"))
        v = trace.summary["vehicles"]
        assert v["1"]["mainctrl_slots"][0] == 4
        assert v["2"]["mainctrl_slots"][0] == 4

    def test_late_arrival_joins_second_round(self):
        trace = run_scenario(bundled_scenario("fig5a"))
        v = trace.summary["vehicles"]
        done_first = v["1"]["done_slot"]
        # the yielding car and the late car resolve together, afterwards
        second_round = v["2"]["mainctrl_slots"][-1]
        assert second_round == v["3"]["mainctrl_slots"][0]
        assert second_round > done_first
        # the late car stays out of V2V during the whole first crossing
        for row in trace.rows:
            if row.uid == 3 and row.slot <= done_first:
                assert row.mode != Mode.V2V_ENTER
        assert trace.summary["all_done"]
        assert check_safety(trace) == []

    @pytest.mark.parametrize(
        "name,delay", [("fig5b", 5), ("fig5c", 7), ("fig5d", 5)]
    )
    def test_two_car_delays(self, name, delay):
        trace = run_scenario(bundled_scenario(name))
        mc = trace.summary["vehicles"]
        assert mc["1"]["enter_delay"] == delay
        assert mc["2"]["enter_delay"] == delay
        assert mc["1"]["fallback_count"] == mc["2"]["fallback_count"] == 0
        assert mc["1"]["v2v_used"] and mc["2"]["v2v_used"]
        assert mc["1"]["mainctrl_slots"] == mc["2"]["mainctrl_slots"]

    def test_liveness_bound_three_sequential_crossings(self):
        trace = run_scenario(bundled_scenario("fig5a"))
        q = max(
            trace.summary["vehicles"][u]["crossing_slots"] for u in ("1", "2", "3")
        )
        approach = 90  # slots to cover the approach distance at cruise speed
        bound = 3 * (q + 7) + approach + 60
        done = [v["done_slot"] for v in trace.summary["vehicles"].values()]
        assert all(d is not None and d <= bound for d in done)


class TestReentryPastTheCenter:
    def test_a_yielder_whose_wait_ends_past_the_center_reenters(self):
        # car 3 yields to car 1, which falls back, and creeps past the center
        # of its path before its wait ends; it re-enters against car 1 from
        # there (this run once raised ValueError in planned_tau)
        geo = IntersectionGeometry(x_s=200.0, w=3.5)
        cars = (
            ("H1R", "H2L", 106.0, 10.0),
            ("H2R", "H3L", 110.0, 13.0),
            ("H3R", "H2L", 109.0, 13.0),
        )
        scenario = Scenario(
            vehicles=tuple(
                VehicleSpec(uid=u, route=Route(cl, nl), x=x, v=v, a=0.0)
                for u, (cl, nl, x, v) in enumerate(cars, 1)
            ),
            geometry=geo,
            channel=DistanceIID(0.001953125),
            F=2,
        )
        trace = run_scenario(scenario)
        assert trace.summary["all_done"] and not trace.violations
        assert (116, 3, "REENTER") in trace.events
        # the position the slot-116 step reads is the one slot 115 ends at
        assert [r.x for r in trace.rows if r.slot == 115 and r.uid == 3] == [200.07428571428574]


class TestSingleVehicle:
    def test_crosses_on_sensors_without_messages(self):
        scenario = Scenario(
            vehicles=(VehicleSpec(uid=1, route=Route("H1R", "H3L"), x=120.0, v=13.0, a=0.0),),
            channel=Perfect(),
            max_slots=300,
        )
        trace = run_scenario(scenario)
        assert trace.summary["all_done"]
        assert all(r.sent == "" for r in trace.rows)
        assert trace.summary["vehicles"]["1"]["mainctrl_slots"] == []
        assert check_safety(trace) == []

    def test_crossing_duration_matches_dynamics(self):
        # 9 m of path at 3 m/s under 0.1 s slots is exactly 30 slots
        scenario = Scenario(
            vehicles=(VehicleSpec(uid=1, route=Route("H1R", "H3L"), x=100.0, v=3.0, a=0.0),),
            geometry=IntersectionGeometry(x_s=200.0, w=4.5),
            channel=Perfect(),
            max_slots=500,
        )
        trace = run_scenario(scenario)
        assert trace.summary["vehicles"]["1"]["crossing_slots"] == 30

    def test_occupancy_follows_traversal_order(self):
        scenario = Scenario(
            vehicles=(VehicleSpec(uid=1, route=Route("H1R", "H3L"), x=150.0, v=10.0, a=0.0),),
            channel=Perfect(),
            max_slots=300,
        )
        trace = run_scenario(scenario)
        seq = [r.occupancy for r in trace.rows if r.occupancy]
        assert seq == sorted(seq)  # S1 then S2 for this route
        assert set(seq) == {"S1", "S2"}


class TestFallbackSafetyAndLiveness:
    def test_single_receiver_overload_forces_total_fallback(self):
        F = 4
        losses = frozenset({(2, s) for s in range(2, 60)})
        trace = run_scenario(two_car(Scripted(losses=losses), F=F, max_slots=600))
        v = trace.summary["vehicles"]
        assert v["2"]["fallback_slot"] is not None
        assert v["1"]["fallback_slot"] is not None
        assert not v["1"]["v2v_used"] and not v["2"]["v2v_used"]
        assert trace.summary["all_done"], "fallback must still cross everyone"
        assert check_safety(trace) == []

    def test_consistency_window_bounded(self):
        F = 4
        losses = frozenset({(2, s) for s in range(2, 60)})
        trace = run_scenario(two_car(Scripted(losses=losses), F=F, max_slots=600))
        assert 0 < trace.summary["mixed_mode_window"] <= 2 * F + 2

    def test_no_v2v_reentry_after_fallback(self):
        trace = run_scenario(bundled_scenario("allloss"))
        for uid in ("1", "2"):
            fb = trace.summary["vehicles"][uid]["fallback_slot"]
            for row in trace.rows:
                if row.uid == int(uid) and row.slot > fb:
                    assert row.mode in (Mode.SD_FALLBACK, Mode.DONE)


class TestRangeLoss:
    def test_a_sender_beyond_R_is_lost_without_a_draw(self):
        # 90*sqrt(2) = 127 m apart: in sensing range (150 m), beyond R (100 m)
        scenario = Scenario(
            vehicles=(
                VehicleSpec(uid=1, route=Route("H1R", "H3L"), x=110.0, v=10.0),
                VehicleSpec(uid=2, route=Route("H2R", "H4L"), x=110.0, v=10.0),
            ),
            R=100.0,
            sensing_radius=150.0,
            F=3,
        )
        trace = run_scenario(scenario)
        rows = {(r.slot, r.uid): r for r in trace.rows}
        for slot, (me, other) in itertools.product(range(2, 6), ((1, 2), (2, 1))):
            assert rows[slot, other].sent.startswith(f"ENTER:{other}:")
            assert rows[slot, me].lost == rows[slot, other].sent
        assert not any(r.received for r in trace.rows)
        assert [rows[6, u].action for u in (1, 2)] == [Action.SWITCH_TO_SD] * 2
        bare = run_scenario(scenario, record=False)
        assert (bare.events, bare.summary) == (trace.events, trace.summary)
        assert [(s, u) for s, u, e in bare.events if e == "SWITCH_SD"] == [(6, 1), (6, 2)]


class TestOneVerdictPerView:
    """The cars that decide on one view (the ENTER set of a round) share one
    verdict: ``priority_decision`` runs once per distinct view of a run, and
    a run reuses no verdict of an earlier run."""

    @pytest.mark.parametrize(
        "name, views, mainctrls",
        [
            ("fault_priority_min", 1, 4),
            ("fig5a", 2, 4),
            ("fault_late_joiner", 2, 3),
            ("fault_split_view", 2, 2),
        ],
    )
    def test_each_view_is_decided_once(self, name, views, mainctrls, tmp_path, monkeypatch):
        decide = icsim.sim.priority_decision
        decided = []

        def counted(*args):
            decided.append(args[0])  # the view: a frozenset of ENTER records
            return decide(*args)

        monkeypatch.setattr(icsim.sim, "priority_decision", counted)
        scenario = resolve_scenario(_reference(name, tmp_path))
        for record in (True, False, True):  # back to back: each run decides its own
            decided.clear()
            trace = run_scenario(scenario, record=record)
            assert len(set(decided)) == len(decided) == views
            assert sum(e == "MAINCTRL" for _, _, e in trace.events) == mainctrls


class TestDeterminism:
    def test_seed_matters_for_random_channel(self):
        base = two_car(DistanceIID(lam=0.004), max_slots=600)
        t1 = run_scenario(base)
        assert run_scenario(base).rows == t1.rows
        assert run_scenario(dataclasses.replace(base, seed=1)).rows != t1.rows


class TestKinematicExactness:
    def test_per_slot_step_identity(self):
        trace = run_scenario(bundled_scenario("fig5a"))
        T = trace.scenario.T
        prev: dict[int, SlotRecord] = {}
        spec_by_uid = {s.uid: s for s in trace.scenario.vehicles}
        for row in trace.rows:
            if row.uid in prev:
                p = prev[row.uid]
                expected = p.x + p.v * T + 0.5 * row.a * T * T
            else:
                s = spec_by_uid[row.uid]
                expected = s.x + s.v * T + 0.5 * row.a * T * T
            assert row.x == pytest.approx(expected, rel=1e-12, abs=1e-12)
            prev[row.uid] = row


def _slowed_vehicle(x, v, v_des=10.0):
    spec = VehicleSpec(uid=1, route=Route("H1R", "H3L"), x=x, v=v_des, a=0.0)
    veh = _Vehicle(spec, F=3, geo=IntersectionGeometry())
    veh.v = v
    return veh


class TestControl:
    """Each control law, read off the car's mode: cruise (``CROSSING``), the
    stop at the line, x_col - STOP_MARGIN = 196.0 here (``SD_FALLBACK``
    before its turn), the yield and the hold at the guard."""

    scenario = two_car(Perfect())

    def drive(self, veh, mode, until, max_slots=400):
        """Drive by ``mode``'s law slot by slot until ``until(veh)``; slots taken."""
        veh.proto.mode = mode
        for slot in range(1, max_slots + 1):
            _integrate(veh, _apply_control(veh, self.scenario, ""), self.scenario.T, slot)
            if until(veh):
                return slot
        raise AssertionError("control never reached its goal")

    @pytest.mark.parametrize("v", [0.0, 3.0, 9.5, 10.0])
    def test_announced_arrival_is_the_driven_one(self, v):
        # a slowed car plans the cruise control it will apply once it
        # proceeds: regain v_des at resume_accel, then hold it
        veh = _slowed_vehicle(x=170.0, v=v)
        x_s = self.scenario.geometry.x_s
        snap = SensorSnapshot(
            est=veh.estimate(),
            route=veh.route,
            x_s=x_s,
            resume_accel=self.scenario.resume_accel,
            radius=self.scenario.sensing_radius,
            others=(),
            v_des=veh.v_des,
        )
        tau = planned_tau(snap)
        slots = self.drive(veh, Mode.CROSSING, lambda ve: ve.x >= x_s)
        assert (slots - 1) * self.scenario.T <= tau <= slots * self.scenario.T

    def test_overshoot_guard_stops_within_the_slot(self):
        veh = _slowed_vehicle(x=196.2, v=0.4)
        assert self.drive(veh, Mode.SD_FALLBACK, lambda ve: ve.v == 0.0) == 1
        assert veh.x < self.scenario.geometry.x_col

    def test_slow_car_reaches_its_stop_line(self):
        # 0.37 m/s with 3.9 m to go: speeding up at resume_accel and braking
        # at the same rate takes about 26 slots; braking all the way at
        # v^2/(2*gap) would take over 200
        target = 196.0
        veh = _slowed_vehicle(x=target - 3.9, v=0.37)
        assert self.drive(veh, Mode.SD_FALLBACK, lambda ve: ve.v == 0.0) <= 35
        assert veh.x == pytest.approx(target, abs=0.01)

    @pytest.mark.parametrize("a_nopr", [0.0, -1.0, -4.0])
    def test_yielder_brakes_by_its_verdict_short_of_the_collision_boundary(self, a_nopr):
        # the guard sits STOP_MARGIN short of the first collision cell; the
        # slot that ends at rest may pass the guard, never the cell
        veh = _slowed_vehicle(x=170.0, v=10.0)
        veh.a_nopr, veh.guard_x = a_nopr, 190.0
        veh.proto.mode = Mode.AWAIT_EXIT
        for slot in range(1, 400):
            a = _apply_control(veh, self.scenario, "")
            assert a <= a_nopr
            _integrate(veh, a, self.scenario.T, slot)
            assert veh.x < veh.guard_x + STOP_MARGIN
            if veh.v == 0.0:
                break
        assert veh.v == 0.0
        if a_nopr == 0.0:  # the guard alone brakes: the car rests at it
            assert veh.x == pytest.approx(veh.guard_x, abs=0.01)

    def test_the_reshaped_last_slot_ends_past_the_target(self):
        # braking at v*v/(2*gap) crosses zero speed within the slot when
        # gap < v*T/2; _integrate then brakes at -v/T, which travels v*T/2
        T = self.scenario.T
        veh = _slowed_vehicle(x=189.96, v=2.0)
        veh.guard_x = 190.0
        gap = veh.guard_x - veh.x
        assert gap < 2.0 * T / 2
        self.drive(veh, Mode.AWAIT_EXIT, lambda ve: True)
        assert veh.v == 0.0
        assert veh.x - veh.guard_x == pytest.approx(2.0 * T / 2 - gap, abs=1e-12)

    def test_no_yielder_rests_past_its_guard_by_the_margin(self):
        # 6,160 yielders: about a third come to rest past the guard (the
        # slot above; the worst by 0.125 m), none by STOP_MARGIN
        past = 0
        for x, v, k in itertools.product(range(150, 190), range(2, 16), range(11)):
            veh = _slowed_vehicle(x=float(x), v=float(v))
            veh.a_nopr, veh.guard_x = -0.5 * k, 190.0
            self.drive(veh, Mode.AWAIT_EXIT, lambda ve: ve.v == 0.0, max_slots=1000)
            assert veh.x <= veh.guard_x + STOP_MARGIN, (x, v, k)
            past += veh.x > veh.guard_x
        assert past

    def test_reentered_yielder_comes_to_rest_at_its_guard(self):
        # in the fresh round that follows a yield, the car holds at its guard
        veh = _slowed_vehicle(x=170.0, v=10.0)
        veh.guard_x = 190.0
        self.drive(veh, Mode.V2V_ENTER, lambda ve: ve.v == 0.0)
        assert veh.x == pytest.approx(veh.guard_x, abs=0.01)


class TestExitRule:
    """The engine's one exit rule: a crossing car and a going fallback car
    are done once the estimate less its error bound has cleared the path."""

    scenario = two_car(Perfect())
    route = Route("H1R", "H3L")  # straight: cleared at x_s + w
    dx = 1.5  # position-error bound

    def car(self, mode, x_est):
        spec = VehicleSpec(
            uid=1, route=self.route, x=190.0, v=10.0, a=0.0, dx_bound=self.dx, x_est=x_est
        )
        veh = _Vehicle(spec, F=3, geo=self.scenario.geometry)
        veh.proto.mode = mode
        veh.fallback_go = mode is Mode.SD_FALLBACK
        return veh

    @pytest.mark.parametrize("mode, action", [(Mode.CROSSING, "Exited"), (Mode.SD_FALLBACK, "")])
    def test_done_once_estimate_less_bound_clears(self, mode, action):
        veh = self.car(mode, self.scenario.geometry.path_exit(self.route) + self.dx)
        assert _sense({1: veh}, self.scenario, {}) == {}  # no sensing needed
        events = []
        assert _exit_rule(veh, 7, events) == action
        assert veh.proto.mode is Mode.DONE
        assert events == [(7, 1, "EXITED")]

    @pytest.mark.parametrize("mode", [Mode.CROSSING, Mode.SD_FALLBACK])
    @pytest.mark.parametrize("behind", [0.01, 5.0])
    def test_not_done_while_the_bound_reaches_inside(self, mode, behind):
        veh = self.car(mode, self.scenario.geometry.path_exit(self.route) + self.dx - behind)
        events = []
        assert _exit_rule(veh, 7, events) == ""
        assert veh.proto.mode is mode
        assert events == []
        # cruise: at its cruise speed, the car keeps it
        assert _apply_control(veh, self.scenario, "") == veh.a_des == 0.0

    @pytest.mark.parametrize(
        "channel", [Perfect(), Scripted(all_lost=frozenset({1, 2}))], ids=["v2v", "fallback"]
    )
    def test_run_exits_in_the_slot_after_clearing(self, channel):
        # Perfect: both cars cross on a verdict; all lost: both fall back
        base = two_car(channel)
        scenario = dataclasses.replace(
            base, vehicles=tuple(dataclasses.replace(v, dx_bound=self.dx) for v in base.vehicles)
        )
        trace = run_scenario(scenario)
        kinds = {name for _, _, name in trace.events}
        assert ("FALLBACK_GO" in kinds) == (channel != Perfect())
        for spec in scenario.vehicles:
            exit_x = scenario.geometry.path_exit(spec.route) + self.dx
            xs = {r.slot: r.x for r in trace.rows if r.uid == spec.uid}
            done = trace.summary["vehicles"][str(spec.uid)]["done_slot"]
            assert xs[done - 1] >= exit_x > xs[done - 2]


class TestAfterTheLastStart:
    """Once every car is CROSSING, DONE or a going fallback car, no car is
    sensed, steps, sends or hears: the slot loop ends, and each car drives
    alone by the exit rule, its control law and the integration. Their
    exits, cells and rows merge slot-major in uid order and end with the
    run's last slot, and what they record is unchanged."""

    @pytest.mark.parametrize(
        "car_2, events, violations, crossing_slots, slots_run",
        [
            # car 2, out of sensing range, crosses behind car 1 into S2
            (
                VehicleSpec(uid=2, route=Route("H2R", "H4L"), x=146.5, v=10.0, a=0.0),
                [(43, 1, "CROSS_START"), (50, 1, "EXITED"), (51, 2, "CROSS_START"),
                 (58, 2, "EXITED")],
                [(slot, "S2", (1, 2)) for slot in range(50, 54)],
                (7, 7),
                58,
            ),
            # car 2 exits at slot 52 while car 1 is on S2 through slot 53:
            # the run, car 1's cells and its rows all end at slot 52
            (
                VehicleSpec(uid=2, route=Route("H2R", "H3L"), x=149.0, v=10.0, a=0.0),
                [(43, 1, "CROSS_START"), (49, 2, "CROSS_START"), (50, 1, "EXITED"),
                 (52, 2, "EXITED")],
                [(50, "S2", (1, 2))],
                (6, 3),
                52,
            ),
        ],
        ids=["car 2 exits last", "the run ends with car 1 in the box"],
    )
    def test_a_done_car_still_in_the_box_counts(
        self, car_2, events, violations, crossing_slots, slots_run
    ):
        # car 1's estimate runs 5 m ahead, so it is DONE while still in S2
        scenario = Scenario(
            vehicles=(
                VehicleSpec(uid=1, route=Route("H1R", "H3L"), x=150.0, v=10.0, a=0.0, x_est=155.0),
                car_2,
            ),
            sensing_radius=1.0,
        )
        trace = run_scenario(scenario)
        assert trace.events == events
        assert trace.violations == violations
        assert check_safety(trace) == trace.violations
        assert trace.slots_run == slots_run
        assert len(trace.rows) == 2 * slots_run
        assert [(r.slot, r.uid) for r in trace.rows] == [
            (slot, uid) for slot in range(1, slots_run + 1) for uid in (1, 2)
        ]
        for uid, count in zip((1, 2), crossing_slots):
            occupied = [r.slot for r in trace.rows if r.uid == uid and r.occupancy]
            assert trace.summary["vehicles"][str(uid)]["crossing_slots"] == len(occupied) == count
        # car 1 is still in the box after the last start
        last_start = max(slot for slot, _, name in events if name == "CROSS_START")
        assert max(r.slot for r in trace.rows if r.uid == 1 and r.occupancy) > last_start
        lean = run_scenario(scenario, record=False)
        assert (lean.events, lean.violations, lean.summary, lean.slots_run) == (
            trace.events, trace.violations, trace.summary, trace.slots_run
        )

    @pytest.mark.parametrize("name", ["fig5a", "allloss"])  # crossing / fallback cars
    def test_budget_ends_after_the_last_start(self, name):
        full = run_scenario(bundled_scenario(name))
        start = max(slot for slot, _, e in full.events if e in ("CROSS_START", "FALLBACK_GO"))
        scenario = dataclasses.replace(full.scenario, max_slots=full.slots_run - 1)
        assert scenario.max_slots > start
        trace = run_scenario(scenario)
        assert trace.slots_run == scenario.max_slots
        assert not trace.summary["all_done"]
        assert len(trace.rows) == scenario.max_slots * len(scenario.vehicles)
        assert trace.rows == full.rows[: len(trace.rows)]


class TestRouteFacts:
    """The route facts a car resolves once from the geometry give the same
    cells, exit and positions as the geometry itself."""

    ROUTES = sorted(OCCUPANCY)
    GEOMETRIES = [IntersectionGeometry(), IntersectionGeometry(x_s=150.0, w=4.5)]

    @staticmethod
    def car(route, geo):
        return _Vehicle(VehicleSpec(uid=1, route=route, x=0.0, v=10.0, a=0.0), F=3, geo=geo)

    @pytest.mark.parametrize("cl, nl", ROUTES)
    def test_turn_counts_the_quadrants_swept(self, cl, nl):
        # 1 right, 2 straight, 3 left: a path starts in its approach's own
        # quadrant and sweeps one more, counterclockwise, per quarter turn
        route = Route(cl, nl)
        quadrants = [int(cell[1:]) - 1 for cell in OCCUPANCY[cl, nl]]
        assert route.turn == len(quadrants)
        assert quadrants == [(route.approach + i) % 4 for i in range(route.turn)]

    @pytest.mark.parametrize("geo", GEOMETRIES, ids=["default", "wide"])
    @pytest.mark.parametrize("cl, nl", ROUTES)
    def test_cell_at_every_boundary_and_one_ulp_either_side(self, cl, nl, geo):
        route = Route(cl, nl)
        veh = self.car(route, geo)
        xs = [geo.x_col - 1.0, geo.x_s, veh.exit_x + 1.0]
        for k in range(len(geo.occupancy(route)) + 2):
            b = geo.x_col + k * geo.w
            xs += [math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)]
        for x in xs:
            assert path_cell(veh.cells, veh.x_col, geo.w, x) == geo.cell_at(route, x), x
        assert {geo.cell_at(route, x) for x in xs} == {None, *geo.occupancy(route)}

    @pytest.mark.parametrize("geo", GEOMETRIES, ids=["default", "wide"])
    @pytest.mark.parametrize("cl, nl", ROUTES)
    def test_exit_and_2d_position_continuous_across_the_center(self, cl, nl, geo):
        route = Route(cl, nl)
        veh = self.car(route, geo)
        assert veh.exit_x == geo.path_exit(route)
        assert veh.x_col == geo.x_col
        # the car leaves along its exit lane, away from the center
        assert veh.heading_out == tuple(-c for c in _HEADINGS[EXIT_LANES.index(nl)])
        # a path position d from x_s, on either side, lies d from the center
        for d in (0.0, 1e-9, 1e-3, 1.0):
            for x in (geo.x_s - d, geo.x_s + d):
                veh.x = x
                r = math.hypot(*_position_2d(veh, geo.x_s))
                assert r == pytest.approx(abs(x - geo.x_s), rel=1e-12, abs=0.0)


class TestSafetyChecker:
    def test_constructed_violation_is_flagged(self):
        # two conflicting straights placed in their shared cell (S2) in the
        # same slot; the checker must notice regardless of how they got there.
        # It reads the plain tuples a run records, not SlotRecords
        scenario = two_car(Perfect())
        records = [
            (1, 1, "CROSSING", 201.0, 13.0, 0.0, 0, "", "", "", "S2", ""),
            (1, 2, "CROSSING", 197.0, 13.0, 0.0, 0, "", "", "", "S2", ""),
        ]
        trace = SimTrace(
            scenario=scenario, records=records, events=[], summary={}, violations=[], slots_run=1
        )
        violations = check_safety(trace)
        assert violations == [(1, "S2", (1, 2))]

    def test_single_vehicle_trace_safe(self):
        scenario = Scenario(
            vehicles=(VehicleSpec(uid=1, route=Route("H1R", "H3L"), x=150.0, v=10.0, a=0.0),),
            channel=Perfect(),
            max_slots=300,
        )
        assert check_safety(run_scenario(scenario)) == []

    def test_liveness_flags_uncrossed_vehicle(self):
        scenario = two_car(Perfect(), max_slots=20)  # far too short
        trace = run_scenario(scenario)
        assert not trace.summary["all_done"]


class TestSlotRecord:
    """A recorded row is built by keyword with the trace's column names,
    in the trace's column order, and none of its fields can be assigned."""

    ROW = dict(
        slot=3, uid=2, mode="V2V_ENTER", x=101.5, v=12.0, a=-0.5, f=1, sent="ACK:2",
        received="ENTER:1:H1R:H3L:8.5", lost="", occupancy="", action="None",
    )

    def test_keyword_construction_in_column_order(self):
        row = SlotRecord(**self.ROW)
        assert tuple(self.ROW) == TRACE_COLUMNS
        assert {name: getattr(row, name) for name in TRACE_COLUMNS} == self.ROW
        assert row == SlotRecord(*self.ROW.values())

    @pytest.mark.parametrize("name", TRACE_COLUMNS)
    def test_fields_cannot_be_assigned(self, name):
        with pytest.raises(AttributeError):
            setattr(SlotRecord(**self.ROW), name, None)


class TestRecordsAndRows:
    """A trace keeps each row as the engine's plain tuple and makes the
    ``SlotRecord``s only when ``rows`` is first read."""

    def test_rows_are_the_records_made_slot_records_once(self):
        trace = run_scenario(bundled_scenario("fig5a"))
        assert trace.records and {type(t) for t in trace.records} == {tuple}
        assert trace.rows == [SlotRecord(*t) for t in trace.records]
        assert {type(r) for r in trace.rows} == {SlotRecord}
        assert trace.rows is trace.rows

    def test_both_empty_without_recording(self):
        trace = run_scenario(bundled_scenario("fig5a"), record=False)
        assert trace.records == [] and trace.rows == []


class TestScenarioValidation:
    def test_duplicate_uids_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(
                vehicles=(
                    VehicleSpec(uid=1, route=Route("H1R", "H3L"), x=100, v=10, a=0),
                    VehicleSpec(uid=1, route=Route("H2R", "H4L"), x=100, v=10, a=0),
                )
            )

    def test_shared_lane_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(
                vehicles=(
                    VehicleSpec(uid=1, route=Route("H1R", "H3L"), x=100, v=10, a=0),
                    VehicleSpec(uid=2, route=Route("H1R", "H4L"), x=90, v=10, a=0),
                )
            )

    def test_starting_inside_intersection_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(
                vehicles=(
                    VehicleSpec(uid=1, route=Route("H1R", "H3L"), x=199.0, v=10, a=0),
                )
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("F", 2.5),
            ("F", 30.0),
            ("F", True),
            ("max_slots", 100.5),
            ("max_slots", False),
            ("seed", 1.5),
            ("seed", True),
        ],
    )
    def test_integer_fields_must_be_ints(self, field, value):
        # on a random channel, where the seed reaches the receivers' streams
        base = dataclasses.replace(bundled_scenario("fig5b"), channel=DistanceIID(0.0013))
        with pytest.raises(ScenarioError, match=f"^{field} must be an integer$"):
            dataclasses.replace(base, **{field: value})

    @pytest.mark.parametrize(
        "v, a, refused",
        [
            (35.0, 0.0, False),  # 3.5 m = w per slot
            (36.0, 0.0, True),
            (30.0, -5.0, False),  # a braking car never passes v
            # gaining speed at resume_accel (2 m/s^2, above a) over the
            # 101.5 m to its exit, 30 m/s reaches 36.1 and 25 m/s 32.1
            (30.0, 0.5, True),
            (25.0, 0.5, False),
        ],
    )
    def test_a_car_that_could_skip_a_cell_is_refused(self, v, a, refused):
        base = bundled_scenario("fig5b")
        vehicles = (dataclasses.replace(base.vehicles[0], v=v, a=a), *base.vehicles[1:])
        if refused:
            with pytest.raises(ScenarioError, match="^vehicle 1 is too fast: "):
                dataclasses.replace(base, vehicles=vehicles)
            return
        trace = run_scenario(dataclasses.replace(base, vehicles=vehicles))
        assert trace.summary["all_done"] and trace.violations == []
        # an accepted car is logged in every cell of its path
        for spec in vehicles:
            logged = {r.occupancy for r in trace.rows if r.uid == spec.uid} - {""}
            assert logged == set(base.geometry.occupancy(spec.route))

    @pytest.mark.parametrize("uid", [1.5, 7.0, True])
    def test_vehicle_uid_must_be_an_int(self, uid):
        # the uid seeds that car's receiver stream
        base = dataclasses.replace(bundled_scenario("fig5b"), channel=DistanceIID(0.0013))
        vehicles = (dataclasses.replace(base.vehicles[0], uid=uid), *base.vehicles[1:])
        with pytest.raises(ScenarioError, match="uid .* must be an integer$"):
            dataclasses.replace(base, vehicles=vehicles)
