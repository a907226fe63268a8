"""Per-vehicle protocol state machines.

Three pieces: the sensor-driven main decision (cross / follow / wait /
switch to V2V), the slotted ENTER consensus that exchanges ENTER and ACK
messages until every competitor holds the same ENTER set, and the
sensor-driven EXIT logic that runs after the main control decision.

Slot convention: a message sent during slot t is delivered during slot t
(or lost; late messages are discarded), and the receiver acts on it at slot
t+1. ``enter_step`` is therefore called once per slot with the messages
delivered in the previous slot as its inbox.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

from .channel import Scripted, sample_delivery
from .kinematics import (
    UNREACHABLE,
    Route,
    VehicleEstimate,
    mean_time_to_intersection,
)


class Mode(str, Enum):
    SD_APPROACH = "SD_APPROACH"
    V2V_ENTER = "V2V_ENTER"
    AWAIT_EXIT = "AWAIT_EXIT"
    CROSSING = "CROSSING"
    DONE = "DONE"
    SD_FALLBACK = "SD_FALLBACK"


class Action(str, Enum):
    NONE = "None"
    INITIATE_MAINCTRL = "InitiateMainCtrl"
    SWITCH_TO_SD = "SwitchToSD"
    EXITED = "Exited"


class SDDecision(str, Enum):
    USE_SD_CROSS = "UseSD_Cross"
    USE_SD_FOLLOW = "UseSD_Follow"
    USE_SD_WAIT = "UseSD_Wait"
    SWITCH_TO_V2V = "SwitchToV2V"


@dataclass(frozen=True)
class EnterMessage:
    uid: int
    clane: str
    nlane: str
    tau_mti: float
    msg_type: str = "ENTER"


@dataclass(frozen=True)
class AckMessage:
    uid: int
    msg_type: str = "ACK"


V2VMessage = EnterMessage | AckMessage


def encode_message(msg: V2VMessage) -> str:
    """Canonical wire record used in trace files."""
    if isinstance(msg, EnterMessage):
        return f"ENTER:{msg.uid}:{msg.clane}:{msg.nlane}:{msg.tau_mti!r}"
    return f"ACK:{msg.uid}"


@dataclass
class SlotIO:
    """One slot's message traffic and the resulting control action."""

    inbox: frozenset[V2VMessage] = frozenset()
    outbox: frozenset[V2VMessage] = frozenset()
    action: Action = Action.NONE


@dataclass(frozen=True)
class SensedVehicle:
    """What onboard sensing reports about one nearby vehicle."""

    uid: int
    clane: str
    x: float  # position along its own approach axis
    dist_to_center: float
    v: float
    competing_light: bool
    exited: bool
    stopped_since: int | None = None


@dataclass(frozen=True)
class SensorSnapshot:
    """One vehicle's view of the world at the start of a slot."""

    est: VehicleEstimate
    route: Route
    x_s: float
    cell_w: float
    a_des: float
    resume_accel: float
    radius: float
    others: tuple[SensedVehicle, ...] = ()
    v_des: float = 0.0  # cruise speed regained after braking (a_des <= 0)


@dataclass
class ProtocolState:
    """Protocol machine for one vehicle.

    ``f`` counts slots in which a needed message failed to arrive; ``t``
    counts slots since the current V2V round started. ``expected_peers`` is
    the competitor set the round runs against.
    """

    uid: int
    F: int
    mode: Mode = Mode.SD_APPROACH
    f: int = 0
    t: int = 0
    known_enters: dict[int, EnterMessage] = field(default_factory=dict)
    known_acks: set[int] = field(default_factory=set)
    expected_peers: set[int] = field(default_factory=set)
    own_enter: EnterMessage | None = None
    ack_sent: bool = False
    resend_next: str = "E"

    def reset_round(self, peers: set[int], own_enter: EnterMessage) -> None:
        """Start a fresh ENTER round against ``peers``."""
        self.mode = Mode.V2V_ENTER
        self.f = 0
        self.t = 0
        self.known_enters = {}
        self.known_acks = set()
        self.expected_peers = set(peers)
        self.own_enter = own_enter
        self.ack_sent = False
        self.resend_next = "E"


def planned_tau(snapshot: SensorSnapshot) -> float:
    """Arrival time at the intersection center under the planned dynamics.

    Models the cruise control the vehicle applies once it proceeds: a
    positive desired acceleration is applied as is; otherwise the vehicle
    holds its cruise speed ``v_des``, first regaining it at
    ``resume_accel`` when it has been slowed or stopped. The announced time
    is therefore the one the vehicle actually drives.
    """
    est = snapshot.est
    a, v_des, ra = snapshot.a_des, snapshot.v_des, snapshot.resume_accel
    if a <= 0 and est.v >= v_des:
        a = 0.0
    elif a <= 0:
        a = ra
        if ra > 0:
            d_ramp = (v_des * v_des - est.v * est.v) / (2.0 * ra)
            rest = snapshot.x_s - est.x_hat - d_ramp
            if rest > 0:
                return (v_des - est.v) / ra + rest / v_des
    tau = mean_time_to_intersection(replace(est, a=a), snapshot.x_s)
    if tau == UNREACHABLE:
        raise ValueError(
            f"vehicle {est.uid} cannot reach the intersection under its plan"
        )
    return tau


def build_enter(snapshot: SensorSnapshot) -> EnterMessage:
    return EnterMessage(
        uid=snapshot.est.uid,
        clane=snapshot.route.clane,
        nlane=snapshot.route.nlane,
        tau_mti=planned_tau(snapshot),
    )


def sd_main_step(
    state: ProtocolState, sensed: SensorSnapshot
) -> tuple[ProtocolState, SDDecision]:
    """Sensor-based decision while approaching the intersection.

    COND1: nobody near the intersection, cross carefully on sensors alone.
    COND2: an obstacle or vehicle ahead on the own lane, follow it.
    COND3: somebody on another lane signals an ongoing competition, wait.
    Otherwise switch to V2V against the sensed competitor set.
    """
    if state.mode is not Mode.SD_APPROACH:
        raise ValueError("sd_main_step requires SD_APPROACH mode")
    active = [o for o in sensed.others if not o.exited]
    in_radius = [o for o in active if o.dist_to_center <= sensed.radius]
    if not in_radius:
        return state, SDDecision.USE_SD_CROSS
    own_dist = sensed.x_s - sensed.est.x_hat
    ahead_same_lane = any(
        o.clane == sensed.route.clane and o.dist_to_center < own_dist for o in active
    )
    if ahead_same_lane:
        return state, SDDecision.USE_SD_FOLLOW
    if any(o.competing_light for o in active if o.clane != sensed.route.clane):
        return state, SDDecision.USE_SD_WAIT
    peers = {
        o.uid
        for o in in_radius
        if o.clane != sensed.route.clane
    }
    state.reset_round(peers, build_enter(sensed))
    return state, SDDecision.SWITCH_TO_V2V


def enter_step(
    state: ProtocolState, inbox: frozenset[V2VMessage] | set[V2VMessage]
) -> tuple[ProtocolState, SlotIO]:
    """Advance the ENTER consensus by one slot.

    The vehicle first transmits its ENTER every slot until it holds all peer
    ENTERs, then transmits a single ACK. While waiting for peer ACKs, each
    failed slot triggers a retransmission pair: the own ENTER in the next
    slot and the own ACK in the one after, which resolves the case where a
    peer is still missing an ENTER. Every slot in which a needed message was
    not received increments ``f``; when ``f`` exceeds the threshold the
    vehicle abandons V2V for sensor-based driving and never returns to it.
    """
    if state.mode is not Mode.V2V_ENTER:
        raise ValueError("enter_step requires V2V_ENTER mode")
    state.t += 1
    _absorb(state, inbox)
    io = SlotIO(inbox=frozenset(inbox))

    if state.t == 1:
        io.outbox = frozenset({state.own_enter})
        return state, io

    if not state.ack_sent:
        if state.expected_peers <= state.known_enters.keys():
            state.ack_sent = True
            state.known_acks.add(state.uid)
            state.resend_next = "E"
            io.outbox = frozenset({AckMessage(uid=state.uid)})
            return state, io
        return _register_failure(state, io, resend={"E"})

    if state.expected_peers <= state.known_acks:
        io.action = Action.INITIATE_MAINCTRL
        return state, io
    nxt = state.resend_next
    state.resend_next = "A" if nxt == "E" else "E"
    return _register_failure(state, io, resend={nxt})


def _absorb(state: ProtocolState, inbox) -> None:
    # Duplicates are idempotent; an ENTER from an unlisted uid joins the
    # round only while no ACK is held yet, otherwise it waits for the next
    # round and is dropped here. ENTERs are processed before ACKs, and an
    # ACK counts only once its sender's ENTER is held: an acknowledgment is
    # meaningless without the content it acknowledges, and the
    # retransmission pairing guarantees another copy follows the ENTER.
    for msg in sorted(
        (m for m in inbox if isinstance(m, EnterMessage)), key=lambda m: m.uid
    ):
        if msg.uid not in state.expected_peers:
            if state.ack_sent or state.known_acks:
                continue
            state.expected_peers.add(msg.uid)
        state.known_enters[msg.uid] = msg
    for msg in sorted(
        (m for m in inbox if isinstance(m, AckMessage)), key=lambda m: m.uid
    ):
        if msg.uid in state.expected_peers and msg.uid in state.known_enters:
            state.known_acks.add(msg.uid)


def _register_failure(
    state: ProtocolState, io: SlotIO, resend: set[str]
) -> tuple[ProtocolState, SlotIO]:
    state.f += 1
    if state.f > state.F:
        state.mode = Mode.SD_FALLBACK
        io.action = Action.SWITCH_TO_SD
        return state, io
    out: set[V2VMessage] = set()
    if "E" in resend:
        out.add(state.own_enter)
    if "A" in resend:
        out.add(AckMessage(uid=state.uid))
    io.outbox = frozenset(out)
    return state, io


def exit_step(
    state: ProtocolState,
    verdict_proceed: frozenset[int],
    sensed: SensorSnapshot,
) -> tuple[ProtocolState, Action]:
    """Sensor-based behavior after the main control decision.

    A proceeding vehicle reports EXITED once its position estimate clears
    the intersection. A yielding vehicle waits until sensing shows every
    proceeding competitor gone, then either starts a fresh ENTER round
    against the remaining competitors or, with nobody left, proceeds
    directly.
    """
    if state.mode is Mode.CROSSING:
        exit_pos = sensed.x_s - sensed.cell_w + _path_cells(sensed) * sensed.cell_w
        if sensed.est.x_hat - sensed.est.dx_bound >= exit_pos:
            state.mode = Mode.DONE
            return state, Action.EXITED
        return state, Action.NONE
    if state.mode is Mode.AWAIT_EXIT:
        visible = {o.uid: o for o in sensed.others}
        for uid in verdict_proceed:
            if uid == state.uid:
                continue
            o = visible.get(uid)
            if o is None or o.exited:
                continue
            # a prioritized car sitting still with its signal off has
            # abandoned the crossing (sensor fallback); stop waiting on it
            if o.stopped_since is not None and not o.competing_light:
                continue
            return state, Action.NONE
        peers = {
            o.uid
            for o in sensed.others
            if not o.exited
            and o.clane != sensed.route.clane
            and o.dist_to_center <= sensed.radius
        }
        if peers:
            state.reset_round(peers, build_enter(sensed))
        else:
            state.mode = Mode.CROSSING
        return state, Action.NONE
    raise ValueError("exit_step requires CROSSING or AWAIT_EXIT mode")


def _path_cells(sensed: SensorSnapshot) -> int:
    return {"right": 1, "straight": 2, "left": 3}[sensed.route.maneuver]


def closed_form_enter_delay(F: int, failures: dict[int, int]) -> int:
    """Slots from the first ENTER until the round resolves, as a closed form.

    For a single contiguous receive-failure burst the consensus completes in
    ``2*ceil(f/2) + 3`` slots; the threshold caps the recoverable extra delay
    at ``F`` slots, beyond which the round resolves by the sensor fallback
    instead.
    """
    if F < 0:
        raise ValueError("F must be nonnegative")
    if any(v < 0 for v in failures.values()):
        raise ValueError("burst lengths must be nonnegative")
    worst = max(failures.values(), default=0)
    return min(F, 2 * math.ceil(worst / 2)) + 3


@dataclass
class EnterRoundResult:
    """Outcome of a pure ENTER-round simulation."""

    mainctrl_slot: dict[int, int | None]
    fallback_slot: dict[int, int | None]
    final_states: dict[int, ProtocolState]
    log: list[dict]  # one entry per (slot, uid): sends/receives/f

    def resolution_slot(self) -> int | None:
        """First slot at which any vehicle commits to a crossing regime.

        That is the common MAINCTRL slot when the consensus completes, or
        the slot after the first fallback (the first sensor-driven slot)
        when it does not.
        """
        slots = [s for s in self.mainctrl_slot.values() if s is not None]
        if slots:
            return min(slots)
        falls = [s for s in self.fallback_slot.values() if s is not None]
        if falls:
            return min(falls) + 1
        return None

    def agreed(self) -> bool:
        slots = set(self.mainctrl_slot.values())
        return len(slots) == 1 and None not in slots


def simulate_enter_round(
    n_vehicles: int,
    F: int,
    losses: set[tuple[int, int]] | None = None,
    max_slots: int | None = None,
    uids: tuple[int, ...] | None = None,
) -> EnterRoundResult:
    """Run a bare ENTER round: every vehicle starts in the same slot and a
    ``Scripted`` channel loses exactly the (receiver uid, slot) pairs in
    ``losses``, delivered by the engine's own ``sample_delivery``.

    Slots count from 1 (the first ENTER transmission). Message content is
    synthetic; only the exchange dynamics matter here.
    """
    losses = losses or set()
    if uids is None:
        uids = tuple(range(1, n_vehicles + 1))
    if max_slots is None:
        max_slots = 4 * F + 16
    lanes = ("H1R", "H2R", "H3R", "H4R")
    exits = ("H3L", "H4L", "H1L", "H2L")
    states: dict[int, ProtocolState] = {}
    for i, uid in enumerate(uids):
        st = ProtocolState(uid=uid, F=F)
        st.reset_round(
            set(uids) - {uid},
            EnterMessage(
                uid=uid,
                clane=lanes[i % 4],
                nlane=exits[i % 4],
                tau_mti=10.0 + uid,
            ),
        )
        states[uid] = st

    channel = Scripted(losses=frozenset(losses))
    mainctrl: dict[int, int | None] = {u: None for u in uids}
    fallback: dict[int, int | None] = {u: None for u in uids}
    log: list[dict] = []
    pending: dict[int, frozenset] = {u: frozenset() for u in uids}

    for slot in range(1, max_slots + 1):
        outboxes: dict[int, frozenset] = {}
        for uid in uids:
            st = states[uid]
            if st.mode is not Mode.V2V_ENTER:
                continue
            st, io = enter_step(st, pending[uid])
            outboxes[uid] = io.outbox
            if io.action is Action.INITIATE_MAINCTRL:
                mainctrl[uid] = slot
                st.mode = Mode.CROSSING
            elif io.action is Action.SWITCH_TO_SD:
                fallback[uid] = slot
            log.append(
                {
                    "slot": slot,
                    "uid": uid,
                    "sent": sorted(encode_message(m) for m in io.outbox),
                    "received": sorted(encode_message(m) for m in io.inbox),
                    "f": st.f,
                    "action": io.action.value,
                }
            )
        for uid in uids:
            if states[uid].mode is Mode.V2V_ENTER:
                links = [(sender, 0.0) for sender in outboxes if sender != uid]
                got, _, _ = sample_delivery(channel, uid, slot, links, outboxes, False, None)
                pending[uid] = frozenset(got)
        if all(states[u].mode is not Mode.V2V_ENTER for u in uids):
            break

    return EnterRoundResult(
        mainctrl_slot=mainctrl,
        fallback_slot=fallback,
        final_states=states,
        log=log,
    )
