"""Protocol state-machine tests: diagram reproduction, exhaustive
equivalence with the closed-form delay, agreement, fallback containment."""

import dataclasses
import itertools

import pytest

from icsim.kinematics import Route, VehicleEstimate
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
    enter_step,
    exit_step,
    planned_tau,
    sd_main_step,
    simulate_enter_round,
)


def burst(uid: int, length: int, start: int = 1) -> set[tuple[int, int]]:
    return {(uid, s) for s in range(start, start + length)}


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
        cell_w=3.5,
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
        snap = dataclasses.replace(make_snapshot(x=100.0, v=10.0), v_des=10.0)
        assert planned_tau(snap) == pytest.approx(10.0)

    def test_slowed_vehicle_plans_its_resume_ramp(self):
        # 5 -> 10 m/s at 2 m/s^2 takes 2.5 s over 18.75 m; the remaining
        # 81.25 m at 10 m/s take 8.125 s
        snap = dataclasses.replace(make_snapshot(x=100.0, v=5.0), v_des=10.0)
        assert planned_tau(snap) == pytest.approx(10.625)

    def test_ramp_cut_short_by_the_center(self):
        # from rest, 4 m at 2 m/s^2 take 2 s, before 10 m/s is reached
        snap = dataclasses.replace(make_snapshot(x=196.0, v=0.0), v_des=10.0)
        assert planned_tau(snap) == pytest.approx(2.0)


class TestSdMainStep:
    def test_empty_neighborhood_crosses_on_sensors(self):
        st = ProtocolState(uid=1, F=8)
        st, decision = sd_main_step(st, make_snapshot())
        assert decision is SDDecision.USE_SD_CROSS
        assert st.mode is Mode.SD_APPROACH

    def test_vehicle_ahead_same_lane_follows(self):
        st = ProtocolState(uid=1, F=8)
        snap = make_snapshot(others=[sensed(2, "H1R", dist=50.0)])
        st, decision = sd_main_step(st, snap)
        assert decision is SDDecision.USE_SD_FOLLOW

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

    def test_exited_vehicles_are_invisible(self):
        st = ProtocolState(uid=1, F=8)
        snap = make_snapshot(others=[sensed(2, "H2R", dist=10.0, exited=True)])
        st, decision = sd_main_step(st, snap)
        assert decision is SDDecision.USE_SD_CROSS


class TestExitStep:
    def crossing_state(self):
        st = ProtocolState(uid=1, F=8)
        st.mode = Mode.CROSSING
        return st

    def test_crossing_exits_when_estimate_clears(self):
        st = self.crossing_state()
        # straight route: cleared at x_s + w
        snap = make_snapshot(x=204.0)
        st, action = exit_step(st, frozenset(), snap)
        assert action is Action.EXITED
        assert st.mode is Mode.DONE

    def test_crossing_not_done_inside(self):
        st = self.crossing_state()
        snap = make_snapshot(x=199.0)
        st, action = exit_step(st, frozenset(), snap)
        assert action is Action.NONE
        assert st.mode is Mode.CROSSING

    def test_yielder_waits_for_priority_exit(self):
        st = ProtocolState(uid=1, F=8)
        st.mode = Mode.AWAIT_EXIT
        snap = make_snapshot(others=[sensed(2, "H2R", dist=5.0, light=True)])
        st, _ = exit_step(st, frozenset({2}), snap)
        assert st.mode is Mode.AWAIT_EXIT

    def test_yielder_reenters_against_remaining(self):
        st = ProtocolState(uid=1, F=8)
        st.mode = Mode.AWAIT_EXIT
        snap = make_snapshot(
            others=[
                sensed(2, "H2R", dist=8.0, exited=True),
                sensed(3, "H3R", dist=40.0),
            ]
        )
        st, _ = exit_step(st, frozenset({2}), snap)
        assert st.mode is Mode.V2V_ENTER
        assert st.expected_peers == {3}
        assert st.f == 0 and st.t == 0

    def test_last_vehicle_proceeds_immediately(self):
        st = ProtocolState(uid=1, F=8)
        st.mode = Mode.AWAIT_EXIT
        snap = make_snapshot(others=[sensed(2, "H2R", dist=8.0, exited=True)])
        st, _ = exit_step(st, frozenset({2}), snap)
        assert st.mode is Mode.CROSSING

    def test_abandoned_priority_car_releases_the_yielder(self):
        # the prioritized car fell back and parked: stopped, signal off
        st = ProtocolState(uid=1, F=8)
        st.mode = Mode.AWAIT_EXIT
        parked = sensed(2, "H2R", dist=4.0, light=False, stopped=40)
        st, _ = exit_step(st, frozenset({2}), make_snapshot(others=[parked]))
        assert st.mode is Mode.V2V_ENTER
        assert st.expected_peers == {2}

    def test_stopped_but_signaling_priority_car_still_blocks(self):
        st = ProtocolState(uid=1, F=8)
        st.mode = Mode.AWAIT_EXIT
        queued = sensed(2, "H2R", dist=4.0, light=True, stopped=40)
        st, _ = exit_step(st, frozenset({2}), make_snapshot(others=[queued]))
        assert st.mode is Mode.AWAIT_EXIT
