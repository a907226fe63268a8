"""Deterministic time-slotted simulation engine.

Each slot runs five phases in a fixed order: sensing, protocol steps,
message transmission and delivery, control application, and kinematic
integration. A message sent in slot t is delivered in slot t and acted on
in slot t+1; anything not delivered in its sending slot is gone. A car
steps only in a slot that can change it: in an ENTER round, or when sensing
gives it what its step reads (a snapshot, or a fallback car's mark to go);
a crossing or going car runs only the exit rule. Delivery runs only when
some car sends. A waiting car (a yielder, or a fallback car stopped short
of its line) waits by one exact rule, ``_held``: while a car in sensing
range holds it by the wait's own test, it neither senses nor steps. No run
drives an inert car (done, past its path exit, on no cell) through the slot
loop; a recorded run writes its remaining rows after the loop. Identical
scenario plus seed always produces a byte-identical trace.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

from .channel import ChannelModel, Perfect, ReceiverStream, sample_delivery
from .kinematics import (
    IntersectionGeometry,
    Route,
    VehicleEstimate,
    enter_trigger,
    path_cell,
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
    build_enter,
    competitors,
    encode_message,
    enter_step,
    exit_step,
    sd_main_step,
)

#: Gap kept between a stop target and the position actually stopped at.
STOP_MARGIN = 0.5
#: A speed at or below this is rest: ``_integrate`` stops the car there.
REST_SPEED = 1e-12
_CRUISE = ("cruise",)
_NO_MAIL: frozenset = frozenset()
# the modes in which a car's signal lights show it competing for the box
_SIGNALLING = (Mode.V2V_ENTER, Mode.AWAIT_EXIT, Mode.CROSSING)


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
    (("F", "max_slots", "seed"), lambda x: type(x) is int, "an integer"),
    (("T", "R", "tau_th", "epsilon", "sigma_x", "d_margin", "sensing_radius",
      "resume_accel"), math.isfinite, "finite"),
    (("T", "R", "tau_th", "resume_accel", "max_slots"), lambda x: x > 0, "positive"),
    (("epsilon",), lambda x: 0 < x < 1, "in (0, 1)"),
    (("F", "seed", "sigma_x", "d_margin", "sensing_radius"), lambda x: x >= 0, "nonnegative"),
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
        # a car that stops (to yield, or at its line) must leave rest again
        if self.resume_accel * self.T <= REST_SPEED:
            raise ScenarioError("resume_accel is too small: a stopped car would never move")
        uids = [v.uid for v in self.vehicles]
        if len(set(uids)) != len(uids):
            raise ScenarioError("vehicle uids must be distinct")
        lanes = [v.route.clane for v in self.vehicles]
        if len(set(lanes)) != len(lanes):
            raise ScenarioError("one vehicle per approach lane")
        for v in self.vehicles:
            if type(v.uid) is not int:
                raise ScenarioError(f"vehicle uid {v.uid!r} must be an integer")
            if not all(map(math.isfinite, (v.x, v.v, v.a, v.dx_bound, v.est_x))):
                raise ScenarioError(f"vehicle {v.uid} has a non-finite number")
            if v.dx_bound < 0 or v.uid < 0:
                raise ScenarioError(f"vehicle {v.uid} has a negative dx_bound or uid")
            if v.x >= self.geometry.x_col:
                raise ScenarioError(f"vehicle {v.uid} starts inside the intersection")
            if v.v < 0:
                raise ScenarioError(f"vehicle {v.uid} has negative initial speed")
            # the announced arrival time takes the root of this squared speed
            dx = self.geometry.x_s - min(v.x, v.est_x)
            if not math.isfinite(v.v * v.v + 2.0 * max(v.a, 0.0) * dx):
                raise ScenarioError(f"vehicle {v.uid} is too fast: v*v + 2*a*dx overflows")
            # a car regains only its initial speed, and at its own a when a > 0,
            # so one that stays at rest in its first slot, or in the first slot
            # after a stop, never moves again
            if max(v.v, v.v + v.a * self.T) <= REST_SPEED or 0 < v.a * self.T <= REST_SPEED:
                raise ScenarioError(f"vehicle {v.uid} can never reach the intersection")
            step = v.v * self.T
            if v.v > 0 and (step == 0 or not math.isfinite(self.R / step)):
                raise ScenarioError(f"vehicle {v.uid} is too slow: R / (v*T) is not finite")


class SlotRecord(NamedTuple):
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


TRACE_COLUMNS = SlotRecord._fields


@dataclass
class SimTrace:
    """One run: the recorded rows, the event log, and the summary folded
    from the log. ``events`` is a slot-ordered list of ``(slot, uid, name)``:

    SWITCH_V2V   leaves sensor driving for an ENTER round (own decision or pulled in)
    FIRST_ENTER  first exchange slot of a round: its first ENTER goes out
    MAINCTRL     the round completed; the car applies the verdict
    SWITCH_SD    the round failed more than F times; sensor fallback for good
    CROSS_START  starts crossing (proceed verdict, nobody left to yield to, or sensors)
    REENTER      a yielder whose prioritised cars have gone starts a fresh round
    FALLBACK_GO  a fallback car takes its turn, or finishes a crossing it is inside
    EXITED       the position estimate, less its bound, has cleared the path; done
    """

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


def _position_2d(veh: _Vehicle, x_s: float) -> tuple[float, float]:
    r = x_s - veh.x
    hx, hy = veh.heading_in if r >= 0 else veh.heading_out
    return (-r * hx, -r * hy)


class _Vehicle:
    """Mutable per-vehicle simulation state, and the facts of its route that
    the geometry fixes: path cells, entry and exit positions, the heading in
    and the heading out."""

    __slots__ = (
        "spec",
        "uid",
        "route",
        "cells",
        "x_col",
        "exit_x",
        "heading_in",
        "heading_out",
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
    )

    def __init__(self, spec: VehicleSpec, F: int, geo: IntersectionGeometry):
        self.spec = spec
        self.uid = spec.uid
        self.route = route = spec.route
        self.cells = geo.occupancy(route)
        self.x_col = geo.x_col
        self.exit_x = geo.path_exit(route)
        self.heading_in = _HEADINGS[route.approach]
        self.heading_out = _HEADINGS[(route.approach + _TURN[route.maneuver]) % 4]
        self.x = spec.x
        self.x_est = spec.est_x
        self.v = spec.v
        # speed to recover after braking episodes; a car that speeds up
        # (a > 0) has no cruise speed, and planned_tau ignores v_des for it
        self.v_des = spec.v if spec.a <= 0.0 else math.inf
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
    always kept). Either way, an inert car (done, past its path exit and on
    no cell) leaves the slot loop, since nothing there reads it; a recorded
    run drives it through its remaining rows after the loop."""
    w = scenario.geometry.w
    # the cars still driven, in uid order; see the end of the integrate pass
    vehicles = {
        spec.uid: _Vehicle(spec, scenario.F, scenario.geometry)
        for spec in sorted(scenario.vehicles, key=lambda s: s.uid)
    }
    uids = list(vehicles)
    dropped: list[_Vehicle] = []
    # one stream per receiver, seeded by (seed, uid): NumPy's
    # default_rng([seed, uid]) draws, deterministic and disjoint across
    # vehicles (deterministic channels never touch them)
    rngs = {}
    if scenario.channel.uses_rng:
        rngs = {u: ReceiverStream(scenario.seed, u) for u in uids}
    # per car, SlotRecord fields, made SlotRecords once at the end
    rows: dict[int, list[tuple]] = {u: [] for u in uids}
    events: list[tuple[int, int, str]] = []
    violations: list[tuple[int, str, tuple[int, int]]] = []
    crossing_slots = {u: 0 for u in uids}
    mixed_run = 0
    mixed_window = 0
    slots_run = 0
    idle = dict.fromkeys(uids, _NO_MAIL)

    for slot in range(1, scenario.max_slots + 1):
        slots_run = slot
        pos: dict[int, tuple[float, float]] = {}  # filled on first use, see _positions
        snapshots = _sense(vehicles, scenario, pos)
        outboxes = {}
        actions = {}
        for veh in vehicles.values():
            uid = veh.uid
            mode = veh.proto.mode
            if mode is Mode.CROSSING or (mode is Mode.SD_FALLBACK and veh.fallback_go):
                actions[uid] = _exit_rule(veh, slot, events)
            elif mode is Mode.V2V_ENTER or uid in snapshots:
                snap = snapshots.get(uid)
                out, actions[uid] = _protocol_phase(veh, snap, scenario, slot, events)
                if out:
                    outboxes[uid] = out
            # any other car keeps its control, which its step would only set
            # again: done, untriggered, still yielding, or short of its line
        delivered, lost = (idle, idle) if not outboxes else _exchange(
            vehicles, outboxes, scenario, rngs, slot, pos
        )
        # modes change only in the protocol phase, so this one pass over the
        # cars also gives the mixed-mode and all-done tests
        holder: dict[str, int] = {}
        any_v2v = any_fall = False
        all_done = True
        inert = []
        for veh in vehicles.values():
            uid = veh.uid
            veh.pending_inbox = delivered[uid]
            a_eff = _apply_control(veh, scenario)
            _integrate(veh, a_eff, scenario.T, slot)
            cell = path_cell(veh.cells, veh.x_col, w, veh.x) if veh.x >= veh.x_col else None
            if cell is not None:
                crossing_slots[uid] += 1
                if cell in holder:
                    violations.append((slot, cell, (holder[cell], uid)))
                else:
                    holder[cell] = uid
            mode = veh.proto.mode
            all_done = all_done and mode is Mode.DONE
            any_v2v = any_v2v or mode is Mode.V2V_ENTER
            any_fall = any_fall or mode is Mode.SD_FALLBACK
            if record:
                rows[uid].append((
                    slot, uid, mode, veh.x, veh.v, a_eff, veh.proto.f,
                    _wire(sent) if (sent := outboxes.get(uid)) else "",
                    _wire(got) if (got := delivered[uid]) else "",
                    _wire(missed) if (missed := lost[uid]) else "",
                    cell or "", actions.get(uid, ""),
                ))
            if mode is Mode.DONE and cell is None and veh.x >= veh.exit_x:
                inert.append(veh)
        # a done car past its path sends, hears and holds nothing, and every
        # reader skips its sensed record: it leaves the loop
        for veh in inert:
            del vehicles[veh.uid]
        dropped += inert

        mixed_run = mixed_run + 1 if (any_v2v and any_fall) else 0
        mixed_window = max(mixed_window, mixed_run)

        if all_done:
            break

    # an inert car's remaining rows: its own control, integrated alone
    for veh in dropped if record else ():
        own = rows[veh.uid]
        for slot in range(len(own) + 1, slots_run + 1):
            a_eff = _apply_control(veh, scenario)
            _integrate(veh, a_eff, scenario.T, slot)
            own.append((
                slot, veh.uid, Mode.DONE, veh.x, veh.v, a_eff, veh.proto.f, "", "", "", "", "",
            ))
    summary = _summarize(events, uids, slots_run, violations, mixed_window, crossing_slots)
    return SimTrace(
        scenario=scenario,
        # slot-major, in uid order: every car has a row in every slot
        rows=list(map(
            functools.partial(tuple.__new__, SlotRecord),
            itertools.chain.from_iterable(zip(*rows.values())),
        )),
        events=events,
        summary=summary,
        violations=violations,
        slots_run=slots_run,
    )


def _positions(pos, vehicles, x_s) -> dict[int, tuple[float, float]]:
    """Every car's 2-D position this slot, into ``pos`` on first use, and
    ``pos``: sensing, waiting and delivery read it, and positions change
    only in the integrate pass."""
    if not pos:
        for u, veh in vehicles.items():
            pos[u] = _position_2d(veh, x_s)
    return pos


def _sense(vehicles, scenario, pos) -> dict:
    """Settle the enter trigger of each approaching car that has not fired
    yet (it reads the car's own estimate alone), then give exactly the cars
    whose step reads the world this slot what they sense among the cars
    still driven (``vehicles``): a snapshot for a triggered approaching car
    and for a yielder whose wait has ended. A fallback car that goes this
    slot, because it is in the box or stopped short of its line with its
    turn come, is marked with None. A waiting car that ``_held`` holds gets
    nothing. The cars given something step; every other car not in an
    ENTER round keeps its control."""
    x_s = scenario.geometry.x_s
    r2 = scenario.sensing_radius**2
    need = []
    out = {}
    for veh in vehicles.values():
        m = veh.proto.mode
        if m is Mode.SD_APPROACH:
            if not veh.triggered:
                veh.triggered = enter_trigger(
                    veh.estimate(), scenario.sigma_x, scenario.R, scenario.T, veh.x_col,
                    scenario.epsilon,
                )
            if veh.triggered:
                need.append(veh)
        elif m is Mode.AWAIT_EXIT:
            if not _held(veh, vehicles, pos, x_s, r2):
                need.append(veh)
        elif m is Mode.SD_FALLBACK and not veh.fallback_go and (
            veh.x >= veh.x_col or (veh.v == 0.0 and not _held(veh, vehicles, pos, x_s, r2))
        ):
            out[veh.uid] = None
    if not need:
        return out
    _positions(pos, vehicles, x_s)
    for me in need:
        uid = me.uid
        others = []
        for o_uid in pos:
            if o_uid == uid or not _in_range(pos, uid, o_uid, r2):
                continue
            o = vehicles[o_uid]
            others.append(SensedVehicle(
                o_uid, o.route.clane, o.x, abs(x_s - o.x), o.v, _signalling(o),
                o.x >= o.exit_x, o.stopped_since,
            ))
        out[uid] = SensorSnapshot(
            me.estimate(), me.route, x_s, me.a_des, scenario.resume_accel,
            scenario.sensing_radius, tuple(others), me.v_des,
        )
    return out


def _signalling(veh: _Vehicle) -> bool:
    """Whether the car's signal lights show it competing for the box."""
    mode = veh.proto.mode
    return mode in _SIGNALLING or (mode is Mode.SD_FALLBACK and veh.fallback_go)


def _held(me: _Vehicle, vehicles, pos, x_s: float, r2: float) -> bool:
    """The wait rule of a yielder or of a fallback car stopped short of its
    line: whether some other car still driven holds it this slot by the
    wait's own test and is in sensing range (``_in_range`` on the slot's
    ``pos``, filled only once some car passes that test). A yielder waits
    on a car it yielded to that has not exited and is moving or signalling;
    a car it yielded to that sits still with its signal off has abandoned
    the crossing (sensor fallback). A fallback car waits, by four-way-stop
    etiquette, on a car that has not exited and signals, is in the box, or
    stopped before it (the earlier stop, then the lower uid, goes first)."""
    if me.proto.mode is Mode.AWAIT_EXIT:
        for o_uid in me.proceed_uids:
            o = vehicles.get(o_uid)  # None for a car that has left the run
            if (
                o is not None and o is not me and o.x < o.exit_x
                and (o.stopped_since is None or _signalling(o))
                and _in_range(_positions(pos, vehicles, x_s), me.uid, o_uid, r2)
            ):
                return True
        return False
    mine = (me.stopped_since if me.stopped_since is not None else 1 << 30, me.uid)
    for o in vehicles.values():
        if o is not me and o.x < o.exit_x and (
            o.x >= me.x_col or _signalling(o)
            or (o.stopped_since is not None and (o.stopped_since, o.uid) < mine)
        ) and _in_range(_positions(pos, vehicles, x_s), me.uid, o.uid, r2):
            return True
    return False


def _in_range(pos, a: int, b: int, r2: float) -> bool:
    """Whether cars ``a`` and ``b`` sense each other: the squared distance
    between their 2-D positions in ``pos`` is at most ``r2``."""
    (ax, ay), (bx, by) = pos[a], pos[b]
    dx = ax - bx
    dy = ay - by
    return dx * dx + dy * dy <= r2


def _protocol_phase(veh: _Vehicle, snap, scenario, slot, events) -> tuple[frozenset, str]:
    """Run one vehicle's protocol step, in a slot that can change it, and
    every transition that reads its own state; returns its outbox and the
    trace's action column. ``snap`` is what ``_sense`` gave the car, or None."""
    mode = veh.proto.mode
    veh.control = _CRUISE

    if mode is Mode.SD_APPROACH:
        # Overhearing an ENTER means an active round wants this vehicle:
        # join it rather than waiting for the signal lights to clear.
        pulled = {m.uid for m in veh.pending_inbox if m.msg_type == "ENTER"}
        if pulled:
            veh.proto.reset_round(pulled | competitors(snap), build_enter(snap))
            events.append((slot, veh.uid, "SWITCH_V2V"))
            return _v2v_step(veh, scenario, slot, events)
        veh.proto, decision = sd_main_step(veh.proto, snap)
        if decision is SDDecision.SWITCH_TO_V2V:
            events.append((slot, veh.uid, "SWITCH_V2V"))
        elif decision is SDDecision.USE_SD_CROSS:
            if veh.x_est >= veh.x_col:
                _cross(veh, slot, events)
        else:
            # USE_SD_WAIT, the only other decision
            veh.control = ("stop_at", veh.x_col - STOP_MARGIN)
        return _NO_MAIL, decision

    if mode is Mode.V2V_ENTER:
        return _v2v_step(veh, scenario, slot, events)

    if mode is Mode.AWAIT_EXIT:
        veh.proto = exit_step(veh.proto, snap)
        if veh.proto.mode is Mode.V2V_ENTER:
            events.append((slot, veh.uid, "REENTER"))
            # hold at the collision boundary until the new round's verdict
            if veh.guard_x is not None:
                veh.control = ("stop_at", veh.guard_x)
        else:
            _cross(veh, slot, events)
        return _NO_MAIL, ""

    # a fallback car here goes: its turn at its line has come, or it already
    # occupies the intersection, where it never parks but finishes the
    # crossing carefully instead of queueing
    veh.fallback_go = True
    events.append((slot, veh.uid, "FALLBACK_GO"))
    return _NO_MAIL, ""


def _exit_rule(veh: _Vehicle, slot, events) -> str:
    """A crossing or going fallback car is done once its position estimate,
    less its bound, has cleared the path; returns the action column, which
    names only the exit of a V2V crossing."""
    if veh.x_est - veh.spec.dx_bound < veh.exit_x:
        return ""
    crossing = veh.proto.mode is Mode.CROSSING
    veh.proto.mode = Mode.DONE
    events.append((slot, veh.uid, "EXITED"))
    return Action.EXITED if crossing else ""


def _cross(veh: _Vehicle, slot, events) -> None:
    veh.proto.mode = Mode.CROSSING
    events.append((slot, veh.uid, "CROSS_START"))
    veh.guard_x = None
    veh.control = _CRUISE


def _v2v_step(veh: _Vehicle, scenario, slot, events) -> tuple[frozenset, str]:
    if veh.proto.t == 0:
        events.append((slot, veh.uid, "FIRST_ENTER"))
    veh.proto, io = enter_step(veh.proto, veh.pending_inbox)
    if io.action is Action.INITIATE_MAINCTRL:
        events.append((slot, veh.uid, "MAINCTRL"))
        _apply_verdict(veh, scenario, slot, events)
    elif io.action is Action.SWITCH_TO_SD:
        events.append((slot, veh.uid, "SWITCH_SD"))
        veh.control = ("stop_at", veh.x_col - STOP_MARGIN)
    elif veh.guard_x is not None:
        # a re-entered yielder keeps holding at its collision boundary
        # while the fresh handshake runs
        veh.control = ("stop_at", veh.guard_x)
    return io.outbox, "" if io.action is Action.NONE else io.action


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
        _cross(veh, slot, events)
        return
    st.mode = Mode.AWAIT_EXIT
    my_col = verdict.collision[veh.uid]
    first_cell = next(c for c in veh.cells if c in my_col)
    col_entry = geo.cell_entry(veh.route, first_cell)
    est = veh.estimate()
    D = geo.w + scenario.d_margin
    if col_entry > est.x_max:
        veh.a_nopr = yield_acceleration(est, veh.a_des, col_entry, D)
    else:
        veh.a_nopr = 0.0  # already at the boundary; the guard does the braking
    veh.guard_x = col_entry - STOP_MARGIN
    veh.control = ("yield",)


def _exchange(vehicles, outboxes, scenario, rngs, slot, pos):
    """Deliver this slot's outboxes, one per car that sends, through the
    channel model to the listening cars still driven (``vehicles``)."""
    x_s = scenario.geometry.x_s
    model = scenario.channel
    delivered = {u: set() for u in vehicles}
    lost = {u: set() for u in vehicles}
    for r_uid, recv in vehicles.items():
        mode = recv.proto.mode
        listening = mode is Mode.V2V_ENTER or (mode is Mode.SD_APPROACH and recv.triggered)
        if not listening:
            continue
        links = []
        _positions(pos, vehicles, x_s)
        rx, ry = pos[r_uid]
        for s_uid, msgs in outboxes.items():
            if s_uid == r_uid:
                continue
            sx, sy = pos[s_uid]
            d = math.hypot(rx - sx, ry - sy)
            if d > scenario.R:
                lost[r_uid] |= msgs
                continue
            links.append((s_uid, d))
        got, missed, recv.prior_lost = sample_delivery(
            model, r_uid, slot, links, outboxes, recv.prior_lost, rngs.get(r_uid)
        )
        delivered[r_uid] |= got
        lost[r_uid] |= missed
    return (
        {u: frozenset(delivered[u]) for u in vehicles},
        {u: frozenset(lost[u]) for u in vehicles},
    )


def _wire(msgs: frozenset) -> str:
    """A trace column: the messages' wire records, sorted and ;-joined."""
    return ";".join(sorted(encode_message(m) for m in msgs))


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
    if a >= 0.0:
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
    if veh.v <= REST_SPEED:
        veh.v = 0.0
        if veh.stopped_since is None:
            veh.stopped_since = slot
    else:
        veh.stopped_since = None
    return a


def _summarize(events, uids, slots_run, violations, mixed_window, crossing_slots) -> dict:
    """Fold the event log into the per-vehicle summary."""
    first_enter: dict[int, int] = {}
    mainctrl: dict[int, list[int]] = {u: [] for u in uids}
    fallback: dict[int, int] = {}
    done: dict[int, int] = {}
    for slot, uid, name in events:
        if name == "FIRST_ENTER":
            first_enter.setdefault(uid, slot)
        elif name == "MAINCTRL":
            mainctrl[uid].append(slot)
        elif name == "SWITCH_SD":
            fallback[uid] = slot
        elif name == "EXITED":
            done[uid] = slot
    per_vehicle = {}
    for uid in uids:
        mc, fb = mainctrl[uid], fallback.get(uid)
        per_vehicle[str(uid)] = {
            "first_enter_slot": first_enter.get(uid),
            "mainctrl_slots": mc,
            "enter_delay": mc[0] - first_enter[uid] + 1 if mc else None,
            "fallback_slot": fb,
            "fallback_count": 0 if fb is None else 1,
            "done_slot": done.get(uid),
            "v2v_used": bool(mc) and fb is None,
            "crossing_slots": crossing_slots[uid],
        }
    return {
        "slots_run": slots_run,
        "all_done": len(done) == len(uids),
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
    x_col = geo.x_col
    routes = {s.uid: s.route for s in trace.scenario.vehicles}
    by_slot: dict[int, dict[str, int]] = {}
    out = []
    for row in trace.rows:
        if row.x < x_col:
            continue  # short of the box: on no cell
        cell = geo.cell_at(routes[row.uid], row.x)
        if cell is None:
            continue
        cells = by_slot.setdefault(row.slot, {})
        if cell in cells:
            out.append((row.slot, cell, (cells[cell], row.uid)))
        else:
            cells[cell] = row.uid
    return out


def write_trace_csv(trace: SimTrace, path) -> None:
    with open(path, "w", newline="") as fh:  # floats by repr; the rest are str or int
        fh.write(",".join(TRACE_COLUMNS) + "\n" + "".join([
            f'{s},{u},{m},{x!r},{v!r},{a!r},{f},"{se}","{re}","{lo}",{oc},{ac}\n'
            for s, u, m, x, v, a, f, se, re, lo, oc, ac in trace.rows
        ]))


def write_summary_json(trace: SimTrace, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(trace.summary, indent=2, sort_keys=True) + "\n")
