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
range holds it by the wait's own test, it neither senses nor steps. The
slot loop drops an inert car (done, past its path exit, on no cell), and it
ends with the first slot after which every car still driven is committed
(crossing, done, or a fallback car that goes): from there no car senses,
steps, sends or hears, so each drives alone by the same calls, and their
exits, cells and rows merge slot-major in uid order up to the run's last
slot. Identical scenario plus seed always produces a byte-identical trace.
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
    EnterMessage,
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
    a: float = 0.0
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
            # a car with a <= 0 never passes its speed v, and one with a > 0
            # gains speed at max(a, resume_accel) at most: u bounds its speed on
            # its path, and a step of at most w leaves a slot's end in every cell
            u = v.v
            if v.a > 0:
                to_exit = self.geometry.path_exit(v.route) - v.x
                u = math.sqrt(v.v * v.v + 2.0 * max(v.a, self.resume_accel) * to_exit)
            if u * self.T > self.geometry.w:
                raise ScenarioError(f"vehicle {v.uid} is too fast: a step of u*T > w could skip a cell")


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
    from the log. ``records`` holds each row as the engine's plain tuple of
    the ``SlotRecord`` fields, slot-major in uid order; ``rows`` makes them
    ``SlotRecord``s on first access. ``events`` is a slot-ordered list of
    ``(slot, uid, name)``:

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
    records: list[tuple]
    events: list[tuple[int, int, str]]
    summary: dict
    violations: list[tuple[int, str, tuple[int, int]]]
    slots_run: int

    @functools.cached_property
    def rows(self) -> list[SlotRecord]:
        return list(map(functools.partial(tuple.__new__, SlotRecord), self.records))


# Heading unit vectors per approach (0..3 counterclockwise), used only for
# inter-vehicle distances; a car leaves on the heading of approach
# ``approach + turn - 2``.
_HEADINGS = ((0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0))


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
        self.heading_out = _HEADINGS[(route.approach + route.turn - 2) % 4]
        self.x = spec.x
        self.x_est = spec.est_x
        self.v = spec.v
        # speed to recover after braking episodes; a car that speeds up
        # (a > 0) has no cruise speed, and planned_tau ignores v_des for it
        self.v_des = spec.v if spec.a <= 0.0 else math.inf
        self.a_des = spec.a
        self.proto = ProtocolState(uid=spec.uid, F=F)
        self.triggered = False
        self.pending_inbox: frozenset = frozenset()
        self.prior_lost = False
        self.proceed_uids: frozenset[int] = frozenset()
        self.a_nopr = 0.0
        self.guard_x: float | None = None
        self.fallback_go = False
        self.stopped_since: int | None = None

    def estimate(self) -> VehicleEstimate:
        return VehicleEstimate(self.uid, self.x_est, self.v, self.a_des, self.spec.dx_bound)


def run_scenario(scenario: Scenario, record: bool = True) -> SimTrace:
    """Advance the scenario until every vehicle is done or the slot budget
    runs out. Returns the full trace; with ``record=False`` the per-slot rows
    are omitted (summary, events and safety bookkeeping are always kept).
    Either way, an inert car (done, past its path exit and on no cell) leaves
    the slot loop, since nothing there reads it, and the loop itself ends
    once every car left is committed; ``_drive_alone`` drives each car from
    there to the run's last slot, or until it is inert if no rows are kept."""
    w = scenario.geometry.w
    # the cars still driven, in uid order; see the end of the integrate pass
    vehicles = {
        spec.uid: _Vehicle(spec, scenario.F, scenario.geometry)
        for spec in sorted(scenario.vehicles, key=lambda s: s.uid)
    }
    uids = list(vehicles)
    # one stream per receiver, seeded by (seed, uid): NumPy's
    # default_rng([seed, uid]) draws, deterministic and disjoint across
    # vehicles (deterministic channels never touch them)
    rngs = {}
    if scenario.channel.uses_rng:
        rngs = {u: ReceiverStream(scenario.seed, u) for u in uids}
    # per car, its rows as tuples of the SlotRecord fields
    rows: dict[int, list[tuple]] = {u: [] for u in uids} if record else {}
    events: list[tuple[int, int, str]] = []
    violations: list[tuple[int, str, tuple[int, int]]] = []
    crossing_slots = {u: 0 for u in uids}
    mixed_run = 0
    mixed_window = 0
    idle = dict.fromkeys(uids, _NO_MAIL)
    verdicts: dict = {}  # view -> PriorityVerdict, for this run only
    resume: dict[_Vehicle, int] = {}  # a car that left the loop -> its next slot

    for slot in range(1, scenario.max_slots + 1):
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
                out, actions[uid] = _protocol_phase(veh, snap, scenario, slot, events, verdicts)
                if out:
                    outboxes[uid] = out
            # any other car (done, untriggered, still yielding, or short of
            # its line) would change nothing by a step: its law is its mode's
        delivered, lost = (idle, idle) if not outboxes else _exchange(
            vehicles, outboxes, scenario, rngs, slot, pos
        )
        # modes change only in the protocol phase, so this one pass over the
        # cars also gives the mixed-mode and all-committed tests
        holder: dict[str, int] = {}
        any_v2v = any_fall = False
        committed = True
        inert = []
        for veh in vehicles.values():
            uid = veh.uid
            veh.pending_inbox = delivered[uid]
            action = actions.get(uid, "")
            a_eff = _apply_control(veh, scenario, action)
            _integrate(veh, a_eff, scenario.T, slot)
            cell = path_cell(veh.cells, veh.x_col, w, veh.x) if veh.x >= veh.x_col else None
            if cell is not None:
                crossing_slots[uid] += 1
                if cell in holder:
                    violations.append((slot, cell, (holder[cell], uid)))
                else:
                    holder[cell] = uid
            mode = veh.proto.mode
            committed = committed and (
                mode is Mode.CROSSING or mode is Mode.DONE or veh.fallback_go
            )
            any_v2v = any_v2v or mode is Mode.V2V_ENTER
            any_fall = any_fall or mode is Mode.SD_FALLBACK
            if record:
                rows[uid].append((
                    slot, uid, mode, veh.x, veh.v, a_eff, veh.proto.f,
                    _wire(sent) if (sent := outboxes.get(uid)) else "",
                    _wire(got) if (got := delivered[uid]) else "",
                    _wire(missed) if (missed := lost[uid]) else "",
                    cell or "", action,
                ))
            if mode is Mode.DONE and cell is None and veh.x >= veh.exit_x:
                inert.append(veh)
        # a done car past its path sends, hears and holds nothing, and every
        # reader skips its sensed record: it leaves the loop
        for veh in inert:
            del vehicles[veh.uid]
            resume[veh] = slot + 1

        mixed_run = mixed_run + 1 if (any_v2v and any_fall) else 0
        mixed_window = max(mixed_window, mixed_run)

        if committed:  # crossing, done or going, every car left drives by its own law
            break

    # Every car still driven is committed, or the budget is spent. Each car
    # drives alone to its exit, which fixes the run's last slot, then on
    # through it (a done car can still be in the box), or until it is inert
    # if no rows are kept
    exits, cells = [], []  # the EXITED events and (slot, uid, cell) records from here on
    for veh in vehicles.values():
        resume[veh] = _drive_alone(
            veh, scenario, slot + 1, scenario.max_slots, exits, cells, rows.get(veh.uid), True
        )
    events += sorted(exits)
    done = [s for s, _, name in events if name == "EXITED"]
    slots_run = max(done, default=slot) if len(done) == len(uids) else scenario.max_slots
    for veh, start in resume.items():
        _drive_alone(veh, scenario, start, slots_run, exits, cells, rows.get(veh.uid))
    # the merged co-occupancy log, slot-major and in uid order as in the loop
    first_in: dict[tuple[int, str], int] = {}
    for slot, uid, cell in sorted(cells):
        crossing_slots[uid] += 1
        if (first := first_in.setdefault((slot, cell), uid)) != uid:
            violations.append((slot, cell, (first, uid)))
    summary = _summarize(events, uids, slots_run, violations, mixed_window, crossing_slots)
    return SimTrace(
        scenario=scenario,
        # slot-major, in uid order: every car has a row in every slot
        records=list(itertools.chain.from_iterable(zip(*rows.values()))),
        events=events,
        summary=summary,
        violations=violations,
        slots_run=slots_run,
    )


def _drive_alone(veh: _Vehicle, scenario, slot, stop, events, cells, own, to_exit=False) -> int:
    """Drive one committed car alone from ``slot`` through ``stop`` by the
    slot loop's calls for it, in order: the exit rule while it crosses or
    goes, the control law, the integration. Each slot's cell goes to
    ``cells`` as ``(slot, uid, cell)``, its row to ``own`` if a list. Stops
    once the car is done if ``to_exit``, else once inert with no rows to
    write; returns the next slot."""
    T, w, uid = scenario.T, scenario.geometry.w, veh.uid
    while slot <= stop:
        mode = veh.proto.mode
        if mode is Mode.DONE and (to_exit or own is None and veh.x >= veh.exit_x
                                  and path_cell(veh.cells, veh.x_col, w, veh.x) is None):
            break
        action = "" if mode is Mode.DONE else _exit_rule(veh, slot, events)
        a_eff = _apply_control(veh, scenario, action)
        _integrate(veh, a_eff, T, slot)
        cell = path_cell(veh.cells, veh.x_col, w, veh.x) if veh.x >= veh.x_col else None
        if cell is not None:
            cells.append((slot, uid, cell))
        if own is not None:
            own.append((
                slot, uid, veh.proto.mode, veh.x, veh.v, a_eff, veh.proto.f, "", "", "",
                cell or "", action,
            ))
        slot += 1
    return slot


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
    ENTER round drives by the law its mode gives."""
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
                o_uid, o.route.clane, o.x, abs(x_s - o.x), _signalling(o),
                o.x >= o.exit_x, o.stopped_since,
            ))
        out[uid] = SensorSnapshot(
            me.estimate(), me.route, x_s, scenario.resume_accel,
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


def _protocol_phase(veh: _Vehicle, snap, scenario, slot, events, verdicts) -> tuple[frozenset, str]:
    """Run one vehicle's protocol step, in a slot that can change it, and
    every transition that reads its own state; returns its outbox and the
    trace's action column. ``snap`` is what ``_sense`` gave the car, or None."""
    mode = veh.proto.mode

    if mode is Mode.SD_APPROACH:
        # Overhearing an ENTER means an active round wants this vehicle:
        # join it rather than waiting for the signal lights to clear.
        pulled = {m.uid for m in veh.pending_inbox if isinstance(m, EnterMessage)}
        if pulled:
            veh.proto.reset_round(pulled | competitors(snap), build_enter(snap))
            events.append((slot, veh.uid, "SWITCH_V2V"))
            return _v2v_step(veh, scenario, slot, events, verdicts)
        veh.proto, decision = sd_main_step(veh.proto, snap)
        if decision is SDDecision.SWITCH_TO_V2V:
            events.append((slot, veh.uid, "SWITCH_V2V"))
        elif decision is SDDecision.USE_SD_CROSS and veh.x_est >= veh.x_col:
            _cross(veh, slot, events)
        return _NO_MAIL, decision

    if mode is Mode.V2V_ENTER:
        return _v2v_step(veh, scenario, slot, events, verdicts)

    if mode is Mode.AWAIT_EXIT:
        veh.proto = exit_step(veh.proto, snap)
        if veh.proto.mode is Mode.V2V_ENTER:
            events.append((slot, veh.uid, "REENTER"))
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


def _v2v_step(veh: _Vehicle, scenario, slot, events, verdicts) -> tuple[frozenset, str]:
    if veh.proto.t == 0:
        events.append((slot, veh.uid, "FIRST_ENTER"))
    veh.proto, io = enter_step(veh.proto, veh.pending_inbox)
    if io.action is Action.INITIATE_MAINCTRL:
        events.append((slot, veh.uid, "MAINCTRL"))
        _apply_verdict(veh, scenario, slot, events, verdicts)
    elif io.action is Action.SWITCH_TO_SD:
        events.append((slot, veh.uid, "SWITCH_SD"))
    return io.outbox, io.action


def _apply_verdict(veh: _Vehicle, scenario, slot, events, verdicts):
    """Turn a completed consensus into a crossing or yielding regime. A verdict
    reads only its view (the ENTER set decided on): one per view and run."""
    st = veh.proto
    view = frozenset((*st.known_enters.values(), st.own_enter))
    verdict = verdicts.get(view)
    if verdict is None:
        verdict = verdicts[view] = priority_decision(view, scenario.tau_th)
    veh.proceed_uids = verdict.proceeding
    if veh.uid in verdict.proceeding:
        _cross(veh, slot, events)
        return
    st.mode = Mode.AWAIT_EXIT
    my_col = verdict.collision[veh.uid]
    first = next(c for c in veh.cells if c in my_col)
    col_entry = scenario.geometry.cell_entry(veh.route, first)
    est = veh.estimate()
    D = scenario.geometry.w + scenario.d_margin
    if col_entry > est.x_max:
        veh.a_nopr = yield_acceleration(est, veh.a_des, col_entry, D)
    else:
        veh.a_nopr = 0.0  # already at the boundary; the guard does the braking
    veh.guard_x = col_entry - STOP_MARGIN


def _exchange(vehicles, outboxes, scenario, rngs, slot, pos):
    """Deliver this slot's outboxes, one per car that sends, through the
    channel model to the listening cars still driven (``vehicles``). A
    sender farther than ``R`` is lost to the receiver without a draw."""
    R = scenario.R
    model = scenario.channel
    _positions(pos, vehicles, scenario.geometry.x_s)
    delivered = dict.fromkeys(vehicles, _NO_MAIL)
    lost = dict.fromkeys(vehicles, _NO_MAIL)
    for r_uid, recv in vehicles.items():
        mode = recv.proto.mode
        listening = mode is Mode.V2V_ENTER or (mode is Mode.SD_APPROACH and recv.triggered)
        if not listening:
            continue
        links, far = [], []
        rx, ry = pos[r_uid]
        for s_uid, msgs in outboxes.items():
            if s_uid == r_uid:
                continue
            sx, sy = pos[s_uid]
            d = math.hypot(rx - sx, ry - sy)
            if d > R:
                far += msgs
            else:
                links.append((s_uid, d))
        got, missed, recv.prior_lost = sample_delivery(
            model, r_uid, slot, links, outboxes, recv.prior_lost, rngs.get(r_uid)
        )
        if got:
            delivered[r_uid] = frozenset(got)
        if missed or far:
            lost[r_uid] = frozenset((*missed, *far))
    return delivered, lost


def _wire(msgs: frozenset) -> str:
    """A trace column: the messages' wire records, sorted and ;-joined."""
    return ";".join(sorted(encode_message(m) for m in msgs))


def _apply_control(veh: _Vehicle, scenario, action: str) -> float:
    """The car's acceleration this slot, by the law its mode and ``action``
    (what its step returned this slot, ``""`` if it did not step) give. A
    triggered approaching car steps every slot, so its decision is fresh."""
    mode = veh.proto.mode
    if mode is Mode.AWAIT_EXIT:  # yield by the verdict, braking to rest near the guard
        return min(veh.a_nopr, _stop_accel(veh, veh.guard_x, scenario.T))
    if mode is Mode.V2V_ENTER and veh.guard_x is not None:  # a re-entered yielder holds
        return _approach_accel(veh, veh.guard_x, scenario)
    if (mode is Mode.SD_FALLBACK and not veh.fallback_go) or action is SDDecision.USE_SD_WAIT:
        return _approach_accel(veh, veh.x_col - STOP_MARGIN, scenario)
    # cruise: a slowed or stopped vehicle first regains its cruise speed
    if veh.a_des <= 0.0 and veh.v < veh.v_des:
        return _regain_accel(veh, scenario)
    return veh.a_des


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
    """Brake at ``v*v / (2*gap)``, the rate that rests at ``target`` if held.
    Not a hard stop: where that crosses zero speed, ``_integrate`` ends the
    slot at rest ``v*T/2 - gap`` past ``target``, which ``STOP_MARGIN`` absorbs."""
    gap = target - veh.x
    if veh.v <= 0.0:
        return 0.0
    if gap <= 0.0:
        return -veh.v / T  # past the target already: come to rest within this slot
    return -(veh.v * veh.v) / (2.0 * gap)


def _integrate(veh: _Vehicle, a: float, T: float, slot: int) -> float:
    # Exact per-slot kinematics; a braking slot that would cross v=0 is
    # reshaped to end exactly at v=0 so the step identity stays exact. The
    # reshaped slot travels v*T/2, which can pass the target a stop aimed at.
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
    if not trace.records:
        return list(trace.violations)
    geo = trace.scenario.geometry
    x_col, w = geo.x_col, geo.w
    paths = {s.uid: geo.occupancy(s.route) for s in trace.scenario.vehicles}
    by_slot: dict[int, dict[str, int]] = {}
    out = []
    for row in trace.records:
        x = row[3]
        if x < x_col:
            continue  # short of the box: on no cell
        slot, uid = row[0], row[1]
        cell = path_cell(paths[uid], x_col, w, x)
        if cell is None:
            continue
        cells = by_slot.setdefault(slot, {})
        if cell in cells:
            out.append((slot, cell, (cells[cell], uid)))
        else:
            cells[cell] = uid
    return out


def write_trace_csv(trace: SimTrace, path) -> None:
    with open(path, "w", newline="") as fh:  # floats by repr; the rest are str or int
        fh.write(",".join(TRACE_COLUMNS) + "\n" + "".join([
            f'{s},{u},{m},{x!r},{v!r},{a!r},{f},"{se}","{re}","{lo}",{oc},{ac}\n'
            for s, u, m, x, v, a, f, se, re, lo, oc, ac in trace.records
        ]))


def write_summary_json(trace: SimTrace, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(trace.summary, indent=2, sort_keys=True) + "\n")
