"""Engine-level tests: scripted scenario reproduction, safety and liveness
checking, determinism, kinematic exactness."""

import dataclasses

import pytest

from icsim.channel import Perfect, Scripted
from icsim.kinematics import IntersectionGeometry, Route
from icsim.protocol import Mode, planned_tau
from icsim.scenarios import bundled_scenario
from icsim.sim import (
    Scenario,
    ScenarioError,
    SimTrace,
    SlotRecord,
    VehicleSpec,
    _apply_control,
    _integrate,
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
    veh = _Vehicle(VehicleSpec(uid=1, route=Route("H1R", "H3L"), x=x, v=v_des, a=0.0), F=3)
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
        tau = planned_tau(_sense({1: veh}, [1], self.scenario, slot=1)[1])
        x_s = self.scenario.geometry.x_s
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
