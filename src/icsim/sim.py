"""Deterministic time-slotted simulation engine.

Each slot runs five phases in a fixed order: sensing, protocol steps,
message transmission and delivery, control application, and kinematic
integration. A message sent in slot t is delivered in slot t and acted on
in slot t+1; anything not delivered in its sending slot is gone. Identical
scenario plus seed always produces a byte-identical trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, Perfect, sample_delivery
from .kinematics import (
    IntersectionGeometry,
    Route,
    VehicleEstimate,
    enter_trigger,
    priority_decision,
    yield_acceleration,
)
from .protocol import (
    Action,
    Mode,
    ProtocolState,
    SDDecision,
    SensedVehicle,
    SensorSnapshot,
    SlotIO,
    build_enter,
    encode_message,
    enter_step,
    exit_step,
    sd_main_step,
)

#: Gap kept between a stop target and the position actually stopped at.
STOP_MARGIN = 0.5
FOLLOW_GAP = 5.0

TRACE_COLUMNS = (
    "slot",
    "uid",
    "mode",
    "x",
    "v",
    "a",
    "f",
    "sent",
    "received",
    "lost",
    "occupancy",
    "action",
)


class ScenarioError(ValueError):
    """A scenario file or structure violates the schema or its invariants."""


@dataclass(frozen=True)
class VehicleSpec:
    uid: int
    route: Route
    x: float
    v: float
    a: float
    dx_bound: float = 0.0
    x_est: float | None = None

    @property
    def est_x(self) -> float:
        return self.x if self.x_est is None else self.x_est


# Rules for the scalar fields of a Scenario: (fields, the test each must
# pass, what the test asks for).
_RULES = (
    (("T", "F", "R", "tau_th", "epsilon", "sigma_x", "d_margin", "sensing_radius",
      "resume_accel", "max_slots", "seed"), math.isfinite, "finite"),
    (("T", "R", "tau_th", "max_slots"), lambda x: x > 0, "positive"),
    (("epsilon",), lambda x: 0 < x < 1, "in (0, 1)"),
    (("F", "seed", "sigma_x", "d_margin", "sensing_radius", "resume_accel"),
     lambda x: x >= 0, "nonnegative"),
)


@dataclass(frozen=True)
class Scenario:
    vehicles: tuple[VehicleSpec, ...]
    geometry: IntersectionGeometry = IntersectionGeometry()
    channel: ChannelModel = Perfect()
    T: float = 0.1
    F: int = 30
    R: float = 500.0
    tau_th: float = 2.0
    epsilon: float = 1e-9
    sigma_x: float = 0.0
    d_margin: float = 2.0
    sensing_radius: float = 150.0
    resume_accel: float = 2.0
    max_slots: int = 400
    seed: int = 0

    def __post_init__(self):
        for names, passes, what in _RULES:
            for name in names:
                if not passes(getattr(self, name)):
                    raise ScenarioError(f"{name} must be {what}")
        uids = [v.uid for v in self.vehicles]
        if len(set(uids)) != len(uids):
            raise ScenarioError("vehicle uids must be distinct")
        lanes = [v.route.clane for v in self.vehicles]
        if len(set(lanes)) != len(lanes):
            raise ScenarioError("one vehicle per approach lane")
        for v in self.vehicles:
            if not all(map(math.isfinite, (v.x, v.v, v.a, v.dx_bound, v.est_x))):
                raise ScenarioError(f"vehicle {v.uid} has a non-finite number")
            if v.dx_bound < 0 or v.uid < 0:
                raise ScenarioError(f"vehicle {v.uid} has a negative dx_bound or uid")
            if v.x >= self.geometry.x_col:
                raise ScenarioError(f"vehicle {v.uid} starts inside the intersection")
            if v.v < 0:
                raise ScenarioError(f"vehicle {v.uid} has negative initial speed")
            if v.v <= 0 and v.a <= 0 and self.resume_accel <= 0:
                raise ScenarioError(f"vehicle {v.uid} can never reach the intersection")


@dataclass(frozen=True)
class SlotRecord:
    slot: int
    uid: int
    mode: str
    x: float
    v: float
    a: float
    f: int
    sent: str
    received: str
    lost: str
    occupancy: str
    action: str


@dataclass
class SimTrace:
    scenario: Scenario
    rows: list[SlotRecord]
    events: list[tuple[int, int, str]]
    summary: dict
    violations: list[tuple[int, str, tuple[int, int]]]
    slots_run: int


# Heading unit vectors per approach (0..3 counterclockwise) and the turn
# applied to them at the center, used only for inter-vehicle distances.
_HEADINGS = ((0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0))
_TURN = {"right": -1, "straight": 0, "left": 1}


def _position_2d(route: Route, x: float, x_s: float) -> tuple[float, float]:
    r = x_s - x
    hx, hy = _HEADINGS[route.approach]
    if r >= 0:
        return (-r * hx, -r * hy)
    k = (route.approach + _TURN[route.maneuver]) % 4
    ox, oy = _HEADINGS[k]
    return (-r * ox, -r * oy)


class _Vehicle:
    """Mutable per-vehicle simulation state."""

    __slots__ = (
        "spec",
        "route",
        "x",
        "x_est",
        "v",
        "v_des",
        "a_des",
        "proto",
        "control",
        "triggered",
        "pending_inbox",
        "prior_lost",
        "proceed_uids",
        "a_nopr",
        "guard_x",
        "fallback_go",
        "stopped_since",
        "first_enter_slot",
        "mainctrl_slots",
        "fallback_slot",
        "done_slot",
        "occupancy_slots",
    )

    def __init__(self, spec: VehicleSpec, F: int):
        self.spec = spec
        self.route = spec.route
        self.x = spec.x
        self.x_est = spec.est_x
        self.v = spec.v
        self.v_des = spec.v  # speed to recover after braking episodes
        self.a_des = spec.a
        self.proto = ProtocolState(uid=spec.uid, F=F)
        self.control = ("cruise",)
        self.triggered = False
        self.pending_inbox: frozenset = frozenset()
        self.prior_lost = False
        self.proceed_uids: frozenset[int] = frozenset()
        self.a_nopr = 0.0
        self.guard_x: float | None = None
        self.fallback_go = False
        self.stopped_since: int | None = None
        self.first_enter_slot: int | None = None
        self.mainctrl_slots: list[int] = []
        self.fallback_slot: int | None = None
        self.done_slot: int | None = None
        self.occupancy_slots = 0

    @property
    def uid(self) -> int:
        return self.spec.uid

    @property
    def mode(self) -> Mode:
        return self.proto.mode

    def estimate(self) -> VehicleEstimate:
        return VehicleEstimate(
            uid=self.uid,
            x_hat=self.x_est,
            v=self.v,
            a=self.a_des,
            dx_bound=self.spec.dx_bound,
        )


def run_scenario(scenario: Scenario, record: bool = True) -> SimTrace:
    """Advance the scenario slot by slot until every vehicle is done or the
    slot budget runs out. Returns the full trace; with ``record=False`` the
    per-slot rows are omitted (summary, events and safety bookkeeping are
    always kept)."""
    geo = scenario.geometry
    vehicles = {
        spec.uid: _Vehicle(spec, scenario.F)
        for spec in sorted(scenario.vehicles, key=lambda s: s.uid)
    }
    uids = sorted(vehicles)
    # one named stream per receiver; deterministic and disjoint across
    # vehicles (deterministic channels never touch them)
    rngs: dict[int, np.random.Generator] = {}
    if scenario.channel.uses_rng:
        rngs = {u: np.random.default_rng([scenario.seed, u]) for u in uids}
    rows: list[SlotRecord] = []
    events: list[tuple[int, int, str]] = []
    violations: list[tuple[int, str, tuple[int, int]]] = []
    mixed_run = 0
    mixed_window = 0
    slots_run = 0

    for slot in range(1, scenario.max_slots + 1):
        slots_run = slot
        snapshots = _sense(vehicles, uids, scenario, slot)
        outboxes: dict[int, frozenset] = {}
        actions: dict[int, str] = {}
        fs: dict[int, int] = {}

        for uid in uids:
            veh = vehicles[uid]
            result = _protocol_phase(veh, snapshots.get(uid), scenario, slot, events)
            if isinstance(result, SlotIO):
                outboxes[uid] = result.outbox
                actions[uid] = (
                    result.action.value if result.action is not Action.NONE else ""
                )
            else:
                actions[uid] = result or ""
            fs[uid] = veh.proto.f

        delivered, lost = _exchange(vehicles, uids, outboxes, scenario, rngs, slot)
        for uid in uids:
            vehicles[uid].pending_inbox = delivered[uid]

        for uid in uids:
            veh = vehicles[uid]
            a_eff = _apply_control(veh, scenario)
            _integrate(veh, a_eff, scenario.T, slot)
            cell = geo.cell_at(veh.route, veh.x)
            if cell is not None:
                veh.occupancy_slots += 1
            if record:
                rows.append(
                    SlotRecord(
                        slot=slot,
                        uid=uid,
                        mode=veh.mode.value,
                        x=veh.x,
                        v=veh.v,
                        a=a_eff,
                        f=fs[uid],
                        sent=";".join(
                            sorted(encode_message(m) for m in outboxes.get(uid, ()))
                        ),
                        received=";".join(
                            sorted(encode_message(m) for m in delivered[uid])
                        ),
                        lost=";".join(sorted(encode_message(m) for m in lost[uid])),
                        occupancy=cell or "",
                        action=actions.get(uid, ""),
                    )
                )

        _check_cooccupancy(vehicles, uids, geo, slot, violations)

        any_v2v = any(vehicles[u].mode is Mode.V2V_ENTER for u in uids)
        any_fall = any(vehicles[u].mode is Mode.SD_FALLBACK for u in uids)
        mixed_run = mixed_run + 1 if (any_v2v and any_fall) else 0
        mixed_window = max(mixed_window, mixed_run)

        if all(vehicles[u].mode is Mode.DONE for u in uids):
            break

    summary = _summarize(vehicles, uids, slots_run, violations, mixed_window)
    return SimTrace(
        scenario=scenario,
        rows=rows,
        events=events,
        summary=summary,
        violations=violations,
        slots_run=slots_run,
    )


def _sense(vehicles, uids, scenario, slot) -> dict[int, SensorSnapshot]:
    """Build sensor snapshots, but only for vehicles that will read them
    this slot: V2V exchanges and finished vehicles run on messages and own
    state alone."""
    geo = scenario.geometry
    need_full = []
    need_self = []
    for u in uids:
        veh = vehicles[u]
        m = veh.proto.mode
        if m is Mode.SD_APPROACH or m is Mode.AWAIT_EXIT:
            need_full.append(u)
        elif m is Mode.SD_FALLBACK:
            (need_self if veh.fallback_go else need_full).append(u)
        elif m is Mode.CROSSING:
            need_self.append(u)
    snapshots = {}

    def base(me):
        return dict(
            est=me.estimate(),
            route=me.route,
            x_s=geo.x_s,
            cell_w=geo.w,
            a_des=me.a_des,
            resume_accel=scenario.resume_accel,
            radius=scenario.sensing_radius,
            v_des=me.v_des,
        )

    if need_full:
        pos2d = {
            u: _position_2d(vehicles[u].route, vehicles[u].x, geo.x_s) for u in uids
        }
        sensed = {}
        for o_uid in uids:
            other = vehicles[o_uid]
            sensed[o_uid] = SensedVehicle(
                uid=o_uid,
                clane=other.route.clane,
                x=other.x,
                dist_to_center=abs(geo.x_s - other.x),
                v=other.v,
                competing_light=other.mode
                in (Mode.V2V_ENTER, Mode.AWAIT_EXIT, Mode.CROSSING)
                or (other.mode is Mode.SD_FALLBACK and other.fallback_go),
                exited=other.x >= geo.path_exit(other.route),
                stopped_since=other.stopped_since,
            )
        for uid in need_full:
            me = vehicles[uid]
            others = []
            for o_uid in uids:
                if o_uid == uid:
                    continue
                dx = pos2d[uid][0] - pos2d[o_uid][0]
                dy = pos2d[uid][1] - pos2d[o_uid][1]
                if dx * dx + dy * dy > scenario.sensing_radius**2:
                    continue
                others.append(sensed[o_uid])
            snapshots[uid] = SensorSnapshot(others=tuple(others), **base(me))
    for uid in need_self:
        snapshots[uid] = SensorSnapshot(others=(), **base(vehicles[uid]))
    return snapshots


def _protocol_phase(veh: _Vehicle, snap: SensorSnapshot, scenario, slot, events):
    """Run one vehicle's per-slot protocol logic; returns a SlotIO for V2V
    exchanges or an action string for bookkeeping."""
    geo = scenario.geometry
    mode = veh.mode

    if mode is Mode.SD_APPROACH:
        if not veh.triggered:
            try:
                veh.triggered = enter_trigger(
                    veh.estimate(),
                    scenario.sigma_x,
                    scenario.R,
                    scenario.T,
                    geo.x_col,
                    scenario.epsilon,
                )
            except ValueError:
                veh.triggered = False
        if not veh.triggered:
            veh.control = ("cruise",)
            return ""
        # Overhearing an ENTER means an active round wants this vehicle:
        # join it rather than waiting for the signal lights to clear.
        pulled = {
            m.uid for m in veh.pending_inbox if getattr(m, "msg_type", "") == "ENTER"
        }
        if pulled:
            peers = pulled | {
                o.uid
                for o in snap.others
                if not o.exited
                and o.clane != veh.route.clane
                and o.dist_to_center <= snap.radius
            }
            veh.proto.reset_round(peers, build_enter(snap))
            events.append((slot, veh.uid, "SWITCH_V2V"))
            return _v2v_step(veh, scenario, slot, events)
        veh.proto, decision = sd_main_step(veh.proto, snap)
        if decision is SDDecision.SWITCH_TO_V2V:
            events.append((slot, veh.uid, "SWITCH_V2V"))
            veh.control = ("cruise",)
            return "SwitchToV2V"
        if decision is SDDecision.USE_SD_CROSS:
            veh.control = ("cruise",)
            if veh.x_est >= geo.x_col:
                veh.proto.mode = Mode.CROSSING
                events.append((slot, veh.uid, "CROSS_START"))
            return decision.value
        if decision is SDDecision.USE_SD_FOLLOW:
            leaders = [
                o
                for o in snap.others
                if o.clane == veh.route.clane and not o.exited and o.x > veh.x
            ]
            target = min(o.x for o in leaders) - FOLLOW_GAP if leaders else None
            veh.control = ("follow", target)
            return decision.value
        veh.control = ("stop_at", geo.x_col - STOP_MARGIN)
        return decision.value

    if mode is Mode.V2V_ENTER:
        return _v2v_step(veh, scenario, slot, events)

    if mode is Mode.AWAIT_EXIT:
        veh.proto, action = exit_step(veh.proto, veh.proceed_uids, snap)
        if veh.proto.mode is Mode.V2V_ENTER:
            events.append((slot, veh.uid, "REENTER"))
            # hold at the collision boundary until the new round's verdict
            veh.control = (
                ("stop_at", veh.guard_x) if veh.guard_x is not None else ("cruise",)
            )
        elif veh.proto.mode is Mode.CROSSING:
            events.append((slot, veh.uid, "CROSS_START"))
            veh.guard_x = None
            veh.control = ("cruise",)
        else:
            veh.control = ("yield",)
        return ""

    if mode is Mode.CROSSING:
        veh.proto, action = exit_step(veh.proto, veh.proceed_uids, snap)
        if action is Action.EXITED:
            veh.done_slot = slot
            events.append((slot, veh.uid, "EXITED"))
        veh.control = ("cruise",)
        return action.value if action is Action.EXITED else ""

    if mode is Mode.SD_FALLBACK:
        if veh.fallback_go:
            exit_pos = geo.path_exit(veh.route)
            if veh.x_est - veh.spec.dx_bound >= exit_pos:
                veh.proto.mode = Mode.DONE
                veh.done_slot = slot
                events.append((slot, veh.uid, "EXITED"))
            veh.control = ("cruise",)
            return ""
        if veh.x >= geo.x_col:
            # already occupying the intersection: parking here is never
            # safe, so finish the crossing carefully instead of queueing
            veh.fallback_go = True
            events.append((slot, veh.uid, "FALLBACK_GO"))
            veh.control = ("cruise",)
            return ""
        veh.control = ("stop_at", geo.x_col - STOP_MARGIN)
        if veh.v == 0.0 and _my_turn(veh, snap, geo):
            veh.fallback_go = True
            events.append((slot, veh.uid, "FALLBACK_GO"))
            veh.control = ("cruise",)
        return ""

    veh.control = ("cruise",)
    return ""


def _v2v_step(veh: _Vehicle, scenario, slot, events) -> SlotIO:
    geo = scenario.geometry
    if veh.proto.t == 0 and veh.first_enter_slot is None:
        veh.first_enter_slot = slot
    veh.proto, io = enter_step(veh.proto, veh.pending_inbox)
    veh.pending_inbox = frozenset()
    if io.action is Action.INITIATE_MAINCTRL:
        veh.mainctrl_slots.append(slot)
        events.append((slot, veh.uid, "MAINCTRL"))
        _apply_verdict(veh, scenario, slot, events)
    elif io.action is Action.SWITCH_TO_SD:
        veh.fallback_slot = slot
        events.append((slot, veh.uid, "SWITCH_SD"))
        veh.control = ("stop_at", geo.x_col - STOP_MARGIN)
    elif veh.guard_x is not None:
        # a re-entered yielder keeps holding at its collision boundary
        # while the fresh handshake runs
        veh.control = ("stop_at", veh.guard_x)
    else:
        veh.control = ("cruise",)
    return io


def _my_turn(veh: _Vehicle, snap: SensorSnapshot, geo: IntersectionGeometry) -> bool:
    """Four-way-stop etiquette: go only when nobody signals, nobody is in
    the box, and no earlier-stopped vehicle is still waiting at its line."""
    mine = (veh.stopped_since if veh.stopped_since is not None else 1 << 30, veh.uid)
    for o in snap.others:
        if o.exited:
            continue
        if o.competing_light:
            return False
        if o.x >= geo.x_s - geo.w:
            return False
        if o.stopped_since is not None and (o.stopped_since, o.uid) < mine:
            return False
    return True


def _apply_verdict(veh: _Vehicle, scenario, slot, events):
    """Turn a completed consensus into a crossing or yielding regime."""
    geo = scenario.geometry
    st = veh.proto
    entries = {
        u: (Route(m.clane, m.nlane), m.tau_mti) for u, m in st.known_enters.items()
    }
    entries[veh.uid] = (
        Route(st.own_enter.clane, st.own_enter.nlane),
        st.own_enter.tau_mti,
    )
    verdict = priority_decision(entries, geo, scenario.tau_th)
    veh.proceed_uids = verdict.proceeding()
    if verdict.is_proceed(veh.uid):
        st.mode = Mode.CROSSING
        events.append((slot, veh.uid, "CROSS_START"))
        veh.guard_x = None
        veh.control = ("cruise",)
        return
    st.mode = Mode.AWAIT_EXIT
    my_col = verdict.collision[veh.uid]
    first_cell = next(c for c in geo.occupancy(veh.route) if c in my_col)
    col_entry = geo.cell_entry(veh.route, first_cell)
    est = veh.estimate()
    D = geo.w + scenario.d_margin
    if col_entry > est.x_max:
        veh.a_nopr = yield_acceleration(est, veh.a_des, col_entry, D)
    else:
        veh.a_nopr = 0.0  # already at the boundary; the guard does the braking
    veh.guard_x = col_entry - STOP_MARGIN
    veh.control = ("yield",)


def _exchange(vehicles, uids, outboxes, scenario, rngs, slot):
    """Deliver this slot's outboxes through the channel model."""
    geo = scenario.geometry
    model = scenario.channel
    delivered = {u: set() for u in uids}
    lost = {u: set() for u in uids}
    senders = [u for u in uids if outboxes.get(u)]
    for r_uid in uids:
        recv = vehicles[r_uid]
        listening = recv.mode is Mode.V2V_ENTER or (
            recv.mode is Mode.SD_APPROACH and recv.triggered
        )
        if not listening:
            continue
        links = []
        rp = _position_2d(recv.route, recv.x, geo.x_s)
        for s_uid in senders:
            if s_uid == r_uid:
                continue
            snd = vehicles[s_uid]
            sp = _position_2d(snd.route, snd.x, geo.x_s)
            d = math.hypot(rp[0] - sp[0], rp[1] - sp[1])
            if d > scenario.R:
                lost[r_uid] |= outboxes[s_uid]
                continue
            links.append((s_uid, d))
        got, missed, recv.prior_lost = sample_delivery(
            model, r_uid, slot, links, outboxes, recv.prior_lost, rngs.get(r_uid)
        )
        delivered[r_uid] |= got
        lost[r_uid] |= missed
    return (
        {u: frozenset(delivered[u]) for u in uids},
        {u: frozenset(lost[u]) for u in uids},
    )


def _apply_control(veh: _Vehicle, scenario) -> float:
    kind = veh.control[0]
    if kind == "cruise":
        # Constant desired acceleration; a slowed or stopped vehicle first
        # regains its cruise speed.
        if veh.a_des <= 0.0 and veh.v < veh.v_des:
            return _regain_accel(veh, scenario)
        return veh.a_des
    if kind == "stop_at":
        return _approach_accel(veh, veh.control[1], scenario)
    if kind == "follow":
        target = veh.control[1]
        if target is None:
            return veh.a_des
        return min(veh.a_des, _stop_accel(veh, target, scenario.T))
    if kind == "yield":
        a = veh.a_nopr
        if veh.guard_x is not None:
            a = min(a, _stop_accel(veh, veh.guard_x, scenario.T))
        return a
    raise RuntimeError(f"unknown control {veh.control!r}")


def _regain_accel(veh: _Vehicle, scenario) -> float:
    """The resume acceleration, cut so the slot lands exactly on the cruise
    speed (negative when already above it)."""
    a = scenario.resume_accel
    if veh.v + a * scenario.T > veh.v_des:
        a = (veh.v_des - veh.v) / scenario.T
    return a


def _approach_accel(veh: _Vehicle, target: float, scenario) -> float:
    """Drive up to ``target`` and stop there: regain the cruise speed while,
    after this slot, a stop within the remaining gap at the resume
    acceleration is still possible; brake otherwise."""
    T, ra = scenario.T, scenario.resume_accel
    a = _regain_accel(veh, scenario)
    if a >= 0.0 and ra > 0.0:
        v1 = veh.v + a * T
        x1 = veh.x + veh.v * T + 0.5 * a * T * T
        if v1 * v1 <= 2.0 * ra * (target - x1):
            return a
    return _stop_accel(veh, target, T)


def _stop_accel(veh: _Vehicle, target: float, T: float) -> float:
    gap = target - veh.x
    if veh.v <= 0.0:
        return 0.0
    if gap <= 0.0:
        return -veh.v / T  # overshoot guard: come to rest within this slot
    return -(veh.v * veh.v) / (2.0 * gap)


def _integrate(veh: _Vehicle, a: float, T: float, slot: int) -> float:
    # Exact per-slot kinematics; a braking slot that would cross v=0 is
    # reshaped to end exactly at v=0 so the step identity stays exact.
    stopping = veh.v + a * T < 0.0
    if stopping:
        a = -veh.v / T
    dx = veh.v * T + 0.5 * a * T * T
    veh.x += dx
    veh.x_est += dx
    veh.v = 0.0 if stopping else veh.v + a * T
    if veh.v <= 1e-12:
        veh.v = 0.0
        if veh.stopped_since is None:
            veh.stopped_since = slot
    else:
        veh.stopped_since = None
    return a


def _check_cooccupancy(vehicles, uids, geo, slot, violations):
    cells: dict[str, int] = {}
    for uid in uids:
        veh = vehicles[uid]
        cell = geo.cell_at(veh.route, veh.x)
        if cell is None:
            continue
        if cell in cells:
            violations.append((slot, cell, (cells[cell], uid)))
        else:
            cells[cell] = uid


def _summarize(vehicles, uids, slots_run, violations, mixed_window) -> dict:
    per_vehicle = {}
    for uid in uids:
        veh = vehicles[uid]
        first_mc = veh.mainctrl_slots[0] if veh.mainctrl_slots else None
        delay = (
            first_mc - veh.first_enter_slot + 1
            if first_mc is not None and veh.first_enter_slot is not None
            else None
        )
        per_vehicle[str(uid)] = {
            "first_enter_slot": veh.first_enter_slot,
            "mainctrl_slots": list(veh.mainctrl_slots),
            "enter_delay": delay,
            "fallback_slot": veh.fallback_slot,
            "fallback_count": 0 if veh.fallback_slot is None else 1,
            "done_slot": veh.done_slot,
            "v2v_used": bool(veh.mainctrl_slots) and veh.fallback_slot is None,
            "crossing_slots": veh.occupancy_slots,
        }
    return {
        "slots_run": slots_run,
        "all_done": all(vehicles[u].mode is Mode.DONE for u in uids),
        "safety_violations": len(violations),
        "mixed_mode_window": mixed_window,
        "vehicles": per_vehicle,
    }


def check_safety(trace: SimTrace) -> list[tuple[int, str, tuple[int, int]]]:
    """Every (slot, cell, uid pair) with two vehicles in the same cell.

    Re-derives occupancy from the recorded positions and routes so the check
    is independent of the engine's own bookkeeping; traces recorded without
    rows fall back to the engine's inline log.
    """
    if not trace.rows:
        return list(trace.violations)
    geo = trace.scenario.geometry
    routes = {s.uid: s.route for s in trace.scenario.vehicles}
    by_slot: dict[int, dict[str, int]] = {}
    out = []
    for row in trace.rows:
        cell = geo.cell_at(routes[row.uid], row.x)
        if cell is None:
            continue
        cells = by_slot.setdefault(row.slot, {})
        if cell in cells:
            out.append((row.slot, cell, (cells[cell], row.uid)))
        else:
            cells[cell] = row.uid
    return out


def check_liveness(trace: SimTrace, bound: int) -> dict[int, bool]:
    """Per-vehicle: did it finish crossing within ``bound`` slots?"""
    out = {}
    for spec in trace.scenario.vehicles:
        done = trace.summary["vehicles"][str(spec.uid)]["done_slot"]
        out[spec.uid] = done is not None and done <= bound
    return out


def write_trace_csv(trace: SimTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for r in trace.rows:
            fh.write(
                f"{r.slot},{r.uid},{r.mode},{r.x!r},{r.v!r},{r.a!r},{r.f},"
                f'"{r.sent}","{r.received}","{r.lost}",{r.occupancy},{r.action}\n'
            )


def write_summary_json(trace: SimTrace, path) -> None:
    with open(path, "w") as fh:
        json.dump(trace.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
