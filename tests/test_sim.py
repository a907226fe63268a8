"""Engine-level tests: scripted scenario reproduction, safety and liveness
checking, determinism, kinematic exactness."""

import dataclasses
import math

import pytest

from icsim.channel import DistanceIID, Perfect, Scripted
from icsim.kinematics import EXIT_LANES, IntersectionGeometry, Route, path_cell
from icsim.protocol import Mode, SensorSnapshot, planned_tau
from icsim.scenarios import bundled_scenario
from icsim.sim import (
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
    check_liveness,
    check_safety,
    run_scenario,
    write_trace_csv,
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
                assert row.mode != Mode.V2V_ENTER.value
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
        assert all(check_liveness(trace, bound).values())


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

    def test_total_blackout_everyone_crosses(self):
        trace = run_scenario(bundled_scenario("allloss"))
        assert trace.summary["all_done"]
        assert check_safety(trace) == []
        v = trace.summary["vehicles"]
        assert all(v[u]["fallback_slot"] is not None for u in v)

    def test_no_v2v_reentry_after_fallback(self):
        trace = run_scenario(bundled_scenario("allloss"))
        for uid in ("1", "2"):
            fb = trace.summary["vehicles"][uid]["fallback_slot"]
            for row in trace.rows:
                if row.uid == int(uid) and row.slot > fb:
                    assert row.mode in (Mode.SD_FALLBACK.value, Mode.DONE.value)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["fig5a", "fig5b", "allloss"])
    def test_byte_identical_traces(self, name, tmp_path):
        paths = []
        for i in (0, 1):
            trace = run_scenario(bundled_scenario(name))
            p = tmp_path / f"{name}_{i}.csv"
            write_trace_csv(trace, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_matters_for_random_channel(self):
        from icsim.channel import DistanceIID

        base = two_car(DistanceIID(lam=0.004), max_slots=600)
        t1 = run_scenario(base)
        t2 = run_scenario(dataclasses.replace(base, seed=1))
        # different seeds are allowed to produce different traces
        d1 = t1.summary["vehicles"]["2"]["enter_delay"]
        d2 = t2.summary["vehicles"]["2"]["enter_delay"]
        t1b = run_scenario(base)
        assert t1.summary == t1b.summary
        assert (d1, d2) is not None  # smoke: both ran to completion


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
    scenario = two_car(Perfect())

    def drive(self, veh, control, until, max_slots=400):
        """Apply ``control`` slot by slot until ``until(veh)``; slots taken."""
        veh.control = control
        for slot in range(1, max_slots + 1):
            _integrate(veh, _apply_control(veh, self.scenario), self.scenario.T, slot)
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
            a_des=veh.a_des,
            resume_accel=self.scenario.resume_accel,
            radius=self.scenario.sensing_radius,
            v_des=veh.v_des,
        )
        tau = planned_tau(snap)
        slots = self.drive(veh, ("cruise",), lambda ve: ve.x >= x_s)
        assert (slots - 1) * self.scenario.T <= tau <= slots * self.scenario.T

    def test_overshoot_guard_stops_within_the_slot(self):
        veh = _slowed_vehicle(x=196.2, v=0.4)
        assert self.drive(veh, ("stop_at", 196.0), lambda ve: ve.v == 0.0) == 1
        assert veh.x < self.scenario.geometry.x_col

    def test_slow_car_reaches_its_stop_line(self):
        # 0.37 m/s with 3.9 m to go: speeding up at resume_accel and braking
        # at the same rate takes about 26 slots; braking all the way at
        # v^2/(2*gap) would take over 200
        target = 196.0
        veh = _slowed_vehicle(x=target - 3.9, v=0.37)
        assert self.drive(veh, ("stop_at", target), lambda ve: ve.v == 0.0) <= 35
        assert veh.x == pytest.approx(target, abs=0.01)


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
        assert veh.control == ("cruise",)

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


class TestCoasting:
    """Once every car is CROSSING, DONE or a going fallback car, a slot runs
    only the exit rule, the integration and the safety log; what those
    slots record is unchanged (the figures were pinned before the engine
    stopped sensing in them)."""

    def test_a_done_car_still_in_the_box_counts(self):
        # car 1's estimate runs 5 m ahead, so it is DONE while still in S2;
        # car 2, out of sensing range, crosses behind it into S2
        scenario = Scenario(
            vehicles=(
                VehicleSpec(uid=1, route=Route("H1R", "H3L"), x=150.0, v=10.0, a=0.0, x_est=155.0),
                VehicleSpec(uid=2, route=Route("H2R", "H4L"), x=146.5, v=10.0, a=0.0),
            ),
            sensing_radius=1.0,
        )
        trace = run_scenario(scenario)
        assert trace.events == [
            (43, 1, "CROSS_START"), (50, 1, "EXITED"), (51, 2, "CROSS_START"), (58, 2, "EXITED"),
        ]
        # every car coasts from slot 52 on
        assert trace.violations == [(slot, "S2", (1, 2)) for slot in range(50, 54)]
        assert check_safety(trace) == trace.violations
        for uid in (1, 2):
            occupied = [r.slot for r in trace.rows if r.uid == uid and r.occupancy]
            assert trace.summary["vehicles"][str(uid)]["crossing_slots"] == len(occupied) == 7
            assert max(occupied) > 52
        lean = run_scenario(scenario, record=False)
        assert (lean.violations, lean.summary) == (trace.violations, trace.summary)

    @pytest.mark.parametrize("name", ["fig5a", "allloss"])  # crossing / fallback cars
    def test_budget_ends_while_coasting(self, name):
        full = run_scenario(bundled_scenario(name))
        coast = max(slot for slot, _, e in full.events if e in ("CROSS_START", "FALLBACK_GO"))
        scenario = dataclasses.replace(full.scenario, max_slots=full.slots_run - 1)
        assert scenario.max_slots > coast
        trace = run_scenario(scenario)
        assert trace.slots_run == scenario.max_slots
        assert not trace.summary["all_done"]
        assert len(trace.rows) == scenario.max_slots * len(scenario.vehicles)
        assert trace.rows == full.rows[: len(trace.rows)]


class TestRouteFacts:
    """The route facts a car resolves once from the geometry give the same
    cells, exit and positions as the geometry itself."""

    ROUTES = sorted(IntersectionGeometry().occupancy_table)
    GEOMETRIES = [IntersectionGeometry(), IntersectionGeometry(x_s=150.0, w=4.5)]

    @staticmethod
    def car(route, geo):
        return _Vehicle(VehicleSpec(uid=1, route=route, x=0.0, v=10.0, a=0.0), F=3, geo=geo)

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
        # same slot; the checker must notice regardless of how they got there
        scenario = two_car(Perfect())
        rows = [
            SlotRecord(1, 1, "CROSSING", 201.0, 13.0, 0.0, 0, "", "", "", "S2", ""),
            SlotRecord(1, 2, "CROSSING", 197.0, 13.0, 0.0, 0, "", "", "", "S2", ""),
        ]
        trace = SimTrace(
            scenario=scenario, rows=rows, events=[], summary={}, violations=[], slots_run=1
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
        live = check_liveness(trace, 20)
        assert not all(live.values())


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
