"""Protocol state-machine tests: diagram reproduction, exhaustive
equivalence with the closed-form delay, agreement, fallback containment."""

import enum
import itertools

import pytest
from test_invariants import still_waiting

from icsim.kinematics import IntersectionGeometry, Route, VehicleEstimate
from icsim.protocol import (
    AckMessage,
    Action,
    EnterMessage,
    Mode,
    ProtocolState,
    SDDecision,
    SensedVehicle,
    SensorSnapshot,
    closed_form_enter_delay,
    competitors,
    enter_step,
    exit_step,
    planned_tau,
    sd_main_step,
    simulate_enter_round,
)
from icsim.scenarios import BUNDLED, bundled_scenario
from icsim.sim import VehicleSpec, _held, _Vehicle, run_scenario


def burst(uid: int, length: int, start: int = 1) -> set[tuple[int, int]]:
    return {(uid, s) for s in range(start, start + length)}


class TestConstants:
    """Modes, actions and decisions are plain strings, each its own trace
    name: the engine tests them with ``is`` on every car and slot, and on
    Python 3.11 an Enum member lookup goes through the metaclass, several
    times slower than a plain attribute."""

    NAMES = {
        Mode: ["SD_APPROACH", "V2V_ENTER", "AWAIT_EXIT", "CROSSING", "DONE", "SD_FALLBACK"],
        Action: ["None", "InitiateMainCtrl", "SwitchToSD", "Exited"],
        SDDecision: ["UseSD_Cross", "UseSD_Wait", "SwitchToV2V"],
    }

    @staticmethod
    def members(cls):
        return [v for k, v in vars(cls).items() if not k.startswith("_")]

    @pytest.mark.parametrize("cls", [Mode, Action, SDDecision], ids=lambda c: c.__name__)
    def test_plain_class_of_trace_names(self, cls):
        assert not issubclass(cls, enum.Enum)
        assert type(cls) is type
        assert self.members(cls) == self.NAMES[cls]
        assert all(type(m) is str for m in self.members(cls))

    def test_bundled_rows_carry_the_mode_constants_themselves(self):
        modes = self.members(Mode)
        seen = set()
        for name in sorted(BUNDLED):
            for row in run_scenario(bundled_scenario(name), record=True).rows:
                assert any(row.mode is m for m in modes), (name, row)
                seen.add(row.mode)
        assert seen == set(modes)


class TestClosedFormDelay:
    @pytest.mark.parametrize(
        "failures,expected",
        [
            ({1: 0, 2: 0}, 3),
            ({1: 0, 2: 1}, 5),
            ({1: 0, 2: 2}, 5),
            ({1: 0, 2: 3}, 7),
            ({1: 2, 2: 2}, 5),
        ],
    )
    def test_reference_patterns(self, failures, expected):
        assert closed_form_enter_delay(30, failures) == expected

    def test_threshold_caps_extra_delay(self):
        assert closed_form_enter_delay(3, {1: 3, 2: 0}) == 6
        assert closed_form_enter_delay(4, {1: 3, 2: 0}) == 7

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            closed_form_enter_delay(3, {1: -1})


class TestDiagramReproduction:
    """The four scripted failure scenarios, slot-exact."""

    @pytest.mark.parametrize(
        "losses,t_en",
        [
            (set(), 3),
            (burst(2, 1), 5),
            (burst(2, 3), 7),
            (burst(1, 2) | burst(2, 2), 5),
        ],
        ids=["0-0", "0-1", "0-3", "2-2"],
    )
    def test_scenario(self, losses, t_en):
        res = simulate_enter_round(2, F=8, losses=losses)
        assert res.agreed(), "both vehicles must decide in the same slot"
        assert res.resolution_slot() == t_en

    def test_skipped_even_case_matches_odd_below(self):
        # a burst of two costs the same as a burst of one
        assert simulate_enter_round(2, F=8, losses=burst(2, 2)).resolution_slot() == 5

    def test_three_vehicles_no_losses(self):
        res = simulate_enter_round(3, F=8)
        assert res.agreed()
        assert res.resolution_slot() == 3

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError, match="F must be nonnegative"):
            simulate_enter_round(2, F=-1)


class TestClosedFormEquivalence:
    """Simulated rounds match the closed form for every single-receiver
    contiguous burst, exhaustively over f in 0..F, F in 2..8."""

    @pytest.mark.parametrize("F", range(2, 9))
    def test_exhaustive(self, F):
        for f in range(0, F + 1):
            res = simulate_enter_round(2, F=F, losses=burst(2, f))
            want = closed_form_enter_delay(F, {1: 0, 2: f})
            assert res.resolution_slot() == want, (F, f)
            if 2 * ((f + 1) // 2) <= F:
                # tolerated burst: consensus completes, in the same slot
                assert res.agreed(), (F, f)
            else:
                # past tolerance: resolved by the sensor fallback instead
                assert not any(s is not None for s in res.mainctrl_slot.values())


class TestAgreementOrFallback:
    """Start-anchored burst combinations, exhaustive with total losses <= 4:
    either every vehicle initiates main control in the same slot holding
    identical message sets, or every vehicle falls back within 2F+2 slots of
    the first fallback."""

    @pytest.mark.parametrize("n,F", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_exhaustive_bursts(self, n, F):
        uids = tuple(range(1, n + 1))
        for lengths in itertools.product(range(5), repeat=n):
            if sum(lengths) > 4:
                continue
            losses = set()
            for uid, ln in zip(uids, lengths):
                losses |= burst(uid, ln)
            res = simulate_enter_round(n, F=F, losses=losses)
            mc = res.mainctrl_slot
            fb = res.fallback_slot
            if all(s is not None for s in mc.values()):
                assert len(set(mc.values())) == 1, (lengths, mc)
                enter_sets = {
                    u: {
                        (m.uid, m.clane, m.nlane, m.tau_mti)
                        for m in res.final_states[u].known_enters.values()
                    }
                    | {
                        (
                            res.final_states[u].own_enter.uid,
                            res.final_states[u].own_enter.clane,
                            res.final_states[u].own_enter.nlane,
                            res.final_states[u].own_enter.tau_mti,
                        )
                    }
                    for u in uids
                }
                first = next(iter(enter_sets.values()))
                assert all(s == first for s in enter_sets.values()), lengths
            else:
                assert all(s is None for s in mc.values()), (lengths, mc, fb)
                falls = [s for s in fb.values() if s is not None]
                assert len(falls) == n, (lengths, fb)
                assert max(falls) - min(falls) <= 2 * F + 2, (lengths, fb)

    def test_midstream_ack_loss_resolves_without_deadlock(self):
        # Losing only an ACK mid-round makes one vehicle finish and the
        # other fall back; nobody hangs. Same-slot agreement cannot hold
        # here because the completing vehicle cannot distinguish this run
        # from a clean one.
        res = simulate_enter_round(2, F=3, losses={(2, 2)})
        assert res.mainctrl_slot[1] == 3
        assert res.mainctrl_slot[2] is None
        assert res.fallback_slot[2] is not None


class TestFallbackContainment:
    def test_counter_exceeding_threshold_switches(self):
        F = 4
        res = simulate_enter_round(2, F=F, losses=burst(2, 30))
        # the starved vehicle gives up after F+1 counted failures
        assert res.fallback_slot[2] == F + 2
        assert res.final_states[2].mode is Mode.SD_FALLBACK

    @pytest.mark.parametrize("F", [2, 3, 5, 8])
    def test_contagion_bound(self, F):
        # vehicle 2 never receives anything and goes silent; vehicle 1 must
        # follow within F+1 further slots (it is still collecting ENTERs,
        # so its counter grows every slot)
        res = simulate_enter_round(2, F=F, losses=burst(2, 4 * F + 16))
        f1, f2 = res.fallback_slot[1], res.fallback_slot[2]
        assert f2 == F + 2
        assert f1 is not None and f1 - f2 <= F + 1

    def test_total_blackout_simultaneous_fallback(self):
        F = 5
        losses = burst(1, 50) | burst(2, 50)
        res = simulate_enter_round(2, F=F, losses=losses)
        assert res.fallback_slot[1] == res.fallback_slot[2] == F + 2

    def test_mixed_window_within_two_f_plus_two(self):
        # worst case: the survivor sits in the ACK-wait retransmission loop
        for F in (2, 3, 4, 6):
            res = simulate_enter_round(2, F=F, losses=burst(2, 4 * F + 16))
            window = res.fallback_slot[1] - res.fallback_slot[2]
            assert 0 < window <= 2 * F + 2


class TestEnterStepUnit:
    def fresh(self, uid=1, peers=(2,), F=3):
        st = ProtocolState(uid=uid, F=F)
        st.reset_round(
            set(peers),
            EnterMessage(uid=uid, clane="H1R", nlane="H3L", tau_mti=10.0),
        )
        return st

    def test_first_slot_sends_enter(self):
        st, io = enter_step(self.fresh(), frozenset())
        assert st.t == 1
        assert {m.msg_type for m in io.outbox} == {"ENTER"}

    def test_duplicate_delivery_is_idempotent(self):
        st = self.fresh()
        msg = EnterMessage(uid=2, clane="H2R", nlane="H4L", tau_mti=9.0)
        st, _ = enter_step(st, frozenset({msg}))
        snap = (dict(st.known_enters), set(st.known_acks), st.f, st.ack_sent)
        st, _ = enter_step(st, frozenset({msg}))
        # counter may advance on missing ACKs, but the message books do not
        assert dict(st.known_enters) == snap[0]
        assert set(st.known_acks) >= snap[1]

    def test_ack_sent_after_all_enters(self):
        st = self.fresh()
        st, _ = enter_step(st, frozenset())
        msg = EnterMessage(uid=2, clane="H2R", nlane="H4L", tau_mti=9.0)
        st, io = enter_step(st, frozenset({msg}))
        assert st.ack_sent
        assert {m.msg_type for m in io.outbox} == {"ACK"}

    def test_late_joiner_folds_in_before_ack(self):
        st = self.fresh(peers=(2,))
        st, _ = enter_step(st, frozenset())
        stray = EnterMessage(uid=9, clane="H3R", nlane="H1L", tau_mti=8.0)
        st, _ = enter_step(st, frozenset({stray}))
        assert 9 in st.expected_peers
        assert 9 in st.known_enters

    def test_late_joiner_ignored_after_ack(self):
        st = self.fresh(peers=(2,))
        st, _ = enter_step(st, frozenset())
        peer = EnterMessage(uid=2, clane="H2R", nlane="H4L", tau_mti=9.0)
        st, _ = enter_step(st, frozenset({peer}))  # transitions, sends ACK
        stray = EnterMessage(uid=9, clane="H3R", nlane="H1L", tau_mti=8.0)
        st, _ = enter_step(st, frozenset({stray}))
        assert 9 not in st.expected_peers
        assert 9 not in st.known_enters

    def test_counter_exceeds_threshold_switches_to_sd(self):
        st = self.fresh(F=1)
        st, _ = enter_step(st, frozenset())  # t=1 send
        st, _ = enter_step(st, frozenset())  # f=1
        st, io = enter_step(st, frozenset())  # f=2 > F
        assert st.f == 2
        assert st.mode is Mode.SD_FALLBACK
        assert io.action is Action.SWITCH_TO_SD

    def test_no_reentry_requires_explicit_round_reset(self):
        st = self.fresh(F=0)
        st, _ = enter_step(st, frozenset())
        st, io = enter_step(st, frozenset())
        assert st.mode is Mode.SD_FALLBACK
        with pytest.raises(ValueError):
            enter_step(st, frozenset())

    def test_failed_slots_resend_enter_then_alternate_after_the_ack(self):
        peer = EnterMessage(uid=2, clane="H2R", nlane="H4L", tau_mti=9.0)
        st = self.fresh(F=8)
        sent = []
        for inbox in [frozenset()] * 3 + [frozenset({peer})] + [frozenset()] * 5:
            st, io = enter_step(st, inbox)
            assert io.action is Action.NONE
            (msg,) = io.outbox
            sent.append(msg.msg_type)
        # the first ENTER, two failures before the ACK, the ACK, then five failures
        assert sent == ["ENTER"] * 3 + ["ACK", "ENTER", "ACK", "ENTER", "ACK", "ENTER"]
        assert st.f == 7

    def test_ack_from_unknown_uid_not_recorded(self):
        st = self.fresh(peers=(2,))
        st, _ = enter_step(st, frozenset())
        st, _ = enter_step(st, frozenset({AckMessage(uid=5)}))
        assert 5 not in st.known_acks


def make_snapshot(
    uid=1,
    x=100.0,
    v=13.0,
    a=0.0,
    route=("H1R", "H3L"),
    others=(),
    x_s=200.0,
):
    return SensorSnapshot(
        est=VehicleEstimate(uid=uid, x_hat=x, v=v, a=a, dx_bound=0.0),
        route=Route(*route),
        x_s=x_s,
        a_des=a,
        resume_accel=2.0,
        radius=150.0,
        others=tuple(others),
    )


def sensed(uid, clane, dist, light=False, exited=False, x=None, v=10.0, stopped=None):
    return SensedVehicle(
        uid=uid,
        clane=clane,
        x=200.0 - dist if x is None else x,
        dist_to_center=dist,
        v=v,
        competing_light=light,
        exited=exited,
        stopped_since=stopped,
    )


class TestPlannedTau:
    def test_cruising_vehicle_plans_uniform_motion(self):
        snap = make_snapshot(x=100.0, v=10.0)._replace(v_des=10.0)
        assert planned_tau(snap) == pytest.approx(10.0)

    def test_slowed_vehicle_plans_its_resume_ramp(self):
        # 5 -> 10 m/s at 2 m/s^2 takes 2.5 s over 18.75 m; the remaining
        # 81.25 m at 10 m/s take 8.125 s
        snap = make_snapshot(x=100.0, v=5.0)._replace(v_des=10.0)
        assert planned_tau(snap) == pytest.approx(10.625)

    def test_ramp_cut_short_by_the_center(self):
        # from rest, 4 m at 2 m/s^2 take 2 s, before 10 m/s is reached
        snap = make_snapshot(x=196.0, v=0.0)._replace(v_des=10.0)
        assert planned_tau(snap) == pytest.approx(2.0)

    @pytest.mark.parametrize("v", [0.0, 5.0, 10.0])
    def test_vehicle_past_the_center_has_arrived(self, v):
        # a yielder held at a guard deep in its path re-enters from there
        snap = make_snapshot(x=200.07, v=v)._replace(v_des=10.0)
        assert planned_tau(snap) == 0.0


class TestSensorRecords:
    """Sensor records are built by keyword with these field names and
    defaults, and none of their fields can be assigned."""

    SENSED = dict(
        uid=2, clane="H2R", x=150.0, dist_to_center=50.0, v=10.0, competing_light=True,
        exited=False, stopped_since=7,
    )
    SNAPSHOT = dict(
        est=VehicleEstimate(uid=1, x_hat=100.0, v=13.0, a=0.0, dx_bound=0.0),
        route=Route("H1R", "H3L"), x_s=200.0, a_des=0.5, resume_accel=2.0, radius=150.0,
        others=(SensedVehicle(**SENSED),), v_des=13.0,
    )

    @pytest.mark.parametrize(
        "cls, fields, defaults",
        [
            (SensedVehicle, SENSED, {"stopped_since": None}),
            (SensorSnapshot, SNAPSHOT, {"others": (), "v_des": 0.0}),
        ],
        ids=["SensedVehicle", "SensorSnapshot"],
    )
    def test_keyword_construction_and_defaults(self, cls, fields, defaults):
        rec = cls(**fields)
        assert {name: getattr(rec, name) for name in fields} == fields
        required = {k: v for k, v in fields.items() if k not in defaults}
        rec = cls(**required)
        assert {name: getattr(rec, name) for name in defaults} == defaults

    @pytest.mark.parametrize("name", list(SENSED))
    def test_sensed_vehicle_is_frozen(self, name):
        with pytest.raises(AttributeError):
            setattr(SensedVehicle(**self.SENSED), name, None)

    @pytest.mark.parametrize("name", list(SNAPSHOT))
    def test_snapshot_is_frozen(self, name):
        with pytest.raises(AttributeError):
            setattr(SensorSnapshot(**self.SNAPSHOT), name, None)


class TestSdMainStep:
    def test_empty_neighborhood_crosses_on_sensors(self):
        st = ProtocolState(uid=1, F=8)
        st, decision = sd_main_step(st, make_snapshot())
        assert decision is SDDecision.USE_SD_CROSS
        assert st.mode is Mode.SD_APPROACH

    def test_competition_in_progress_waits(self):
        st = ProtocolState(uid=1, F=8)
        snap = make_snapshot(others=[sensed(2, "H2R", dist=90.0, light=True)])
        st, decision = sd_main_step(st, snap)
        assert decision is SDDecision.USE_SD_WAIT

    def test_fresh_competitors_switch_to_v2v(self):
        st = ProtocolState(uid=1, F=8)
        snap = make_snapshot(
            others=[sensed(2, "H2R", dist=95.0), sensed(3, "H3R", dist=110.0)]
        )
        st, decision = sd_main_step(st, snap)
        assert decision is SDDecision.SWITCH_TO_V2V
        assert st.mode is Mode.V2V_ENTER
        assert st.expected_peers == {2, 3}
        assert st.f == 0 and st.t == 0
        assert st.own_enter is not None

    def test_competitors_are_other_lanes_in_radius_not_exited(self):
        snap = make_snapshot(
            others=[
                sensed(2, "H2R", dist=95.0),
                sensed(3, "H3R", dist=151.0),  # beyond the 150 m radius
                sensed(4, "H4R", dist=5.0, exited=True),
                sensed(5, "H1R", dist=60.0),  # own lane: not a competitor
            ]
        )
        assert competitors(snap) == {2}

    def test_exited_vehicles_are_invisible(self):
        st = ProtocolState(uid=1, F=8)
        snap = make_snapshot(others=[sensed(2, "H2R", dist=10.0, exited=True)])
        st, decision = sd_main_step(st, snap)
        assert decision is SDDecision.USE_SD_CROSS


class TestStillWaiting:
    """The reference for a yielder's wait, over the sensed records of the
    cars it may wait on; the engine's ``_held`` must agree with it
    (``test_invariants.TestWaitRule``)."""

    def test_a_proceeding_car_in_range_holds_the_yielder(self):
        assert still_waiting(1, frozenset({2}), [sensed(2, "H2R", dist=5.0, light=True)])

    def test_a_queued_car_still_holds_it(self):
        queued = sensed(2, "H2R", dist=4.0, light=True, stopped=40)
        assert still_waiting(1, frozenset({2}), [queued])

    def test_a_parked_car_has_abandoned_the_crossing(self):
        parked = sensed(2, "H2R", dist=4.0, light=False, stopped=40)
        assert not still_waiting(1, frozenset({2}), [parked])

    def test_a_car_out_of_range_counts_as_gone(self):
        assert not still_waiting(1, frozenset({2}), [])
        # a sensed car the verdict did not let proceed is not waited on
        assert not still_waiting(1, frozenset({2}), [sensed(3, "H3R", dist=5.0, light=True)])

    def test_an_exited_car_counts_as_gone(self):
        gone = sensed(2, "H2R", dist=8.0, light=True, exited=True)
        assert not still_waiting(1, frozenset({2}), [gone])

    def test_the_yielders_own_uid_is_skipped(self):
        me = sensed(1, "H1R", dist=5.0, light=True)
        assert not still_waiting(1, frozenset({1}), [me])
        assert still_waiting(1, frozenset({1, 2}), [me, sensed(2, "H2R", dist=5.0, light=True)])


def yielder_and_priority_car(mode, v, stopped_since=None):
    """Whether the engine's wait rule holds car 1, a yielder stopped 75 m
    short of the centre, while car 2, the car it yielded to, is 5 m short of
    the centre on the next approach in ``mode``, well within sensing range."""
    geo = IntersectionGeometry(x_s=200.0, w=3.5)
    me = _Vehicle(VehicleSpec(uid=1, route=Route("H1R", "H3L"), x=125.0, v=0.0, a=1.0), 8, geo)
    other = _Vehicle(VehicleSpec(uid=2, route=Route("H2R", "H4L"), x=195.0, v=v, a=1.0), 8, geo)
    me.proto.mode, me.proceed_uids = Mode.AWAIT_EXIT, frozenset({2})
    other.proto.mode, other.stopped_since = mode, stopped_since
    return _held(me, {1: me, 2: other}, {}, geo.x_s, 150.0**2)


class TestExitStep:
    """``exit_step`` ends a yielder's wait; the engine's ``_held`` decides
    when."""

    def test_rejects_a_crossing_vehicle(self):
        # leaving the intersection is the engine's exit rule (test_sim.TestExitRule)
        st = ProtocolState(uid=1, F=8)
        st.mode = Mode.CROSSING
        with pytest.raises(ValueError, match="AWAIT_EXIT"):
            exit_step(st, make_snapshot(x=204.0))

    def test_yielder_waits_for_priority_exit(self):
        assert yielder_and_priority_car(Mode.CROSSING, v=10.0)

    def test_yielder_reenters_against_remaining(self):
        st = ProtocolState(uid=1, F=8)
        st.mode = Mode.AWAIT_EXIT
        snap = make_snapshot(
            others=[
                sensed(2, "H2R", dist=8.0, exited=True),
                sensed(3, "H3R", dist=40.0),
            ]
        )
        st = exit_step(st, snap)
        assert st.mode is Mode.V2V_ENTER
        assert st.expected_peers == {3}
        assert st.f == 0 and st.t == 0

    def test_last_vehicle_proceeds_immediately(self):
        st = ProtocolState(uid=1, F=8)
        st.mode = Mode.AWAIT_EXIT
        snap = make_snapshot(others=[sensed(2, "H2R", dist=8.0, exited=True)])
        st = exit_step(st, snap)
        assert st.mode is Mode.CROSSING

    def test_abandoned_priority_car_releases_the_yielder(self):
        # the prioritized car fell back and parked: stopped, signal off
        assert not yielder_and_priority_car(Mode.SD_FALLBACK, v=0.0, stopped_since=40)
        st = ProtocolState(uid=1, F=8)
        st.mode = Mode.AWAIT_EXIT
        parked = sensed(2, "H2R", dist=4.0, light=False, stopped=40)
        st = exit_step(st, make_snapshot(others=[parked]))
        assert st.mode is Mode.V2V_ENTER
        assert st.expected_peers == {2}

    def test_stopped_but_signaling_priority_car_still_blocks(self):
        assert yielder_and_priority_car(Mode.V2V_ENTER, v=0.0, stopped_since=40)
