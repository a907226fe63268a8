"""Per-vehicle protocol state machines.

Three pieces: the sensor-driven main decision (cross / wait / switch to
V2V), the slotted ENTER consensus that exchanges ENTER and ACK
messages until every competitor holds the same ENTER set, and the end of a
yielding vehicle's wait after the consensus (a fresh round, or crossing).
The wait itself, and the transitions that read only the vehicle's own
state (starting to cross, leaving the intersection), belong to the engine.

Slot convention: a message sent during slot t is delivered during slot t
(or lost; late messages are discarded), and the receiver acts on it at slot
t+1. ``enter_step`` is therefore called once per slot with the messages
delivered in the previous slot as its inbox.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .channel import Scripted, sample_delivery
from .kinematics import (
    UNREACHABLE,
    Route,
    VehicleEstimate,
    mean_time_to_intersection,
)


# Plain strings, each its own trace name, tested with ``is``: on Python 3.11
# an Enum member lookup goes through the metaclass and costs several times more.
class Mode:
    SD_APPROACH = "SD_APPROACH"
    V2V_ENTER = "V2V_ENTER"
    AWAIT_EXIT = "AWAIT_EXIT"
    CROSSING = "CROSSING"
    DONE = "DONE"
    SD_FALLBACK = "SD_FALLBACK"


class Action:
    NONE = "None"
    INITIATE_MAINCTRL = "InitiateMainCtrl"
    SWITCH_TO_SD = "SwitchToSD"
    EXITED = "Exited"


class SDDecision:
    USE_SD_CROSS = "UseSD_Cross"
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
    """One slot's outgoing messages and the resulting control action."""

    outbox: frozenset[V2VMessage] = frozenset()
    action: str = Action.NONE


class SensedVehicle(NamedTuple):
    """What onboard sensing reports about one nearby vehicle."""

    uid: int
    clane: str
    x: float  # position along its own approach axis
    dist_to_center: float
    v: float
    competing_light: bool
    exited: bool
    stopped_since: int | None = None


class SensorSnapshot(NamedTuple):
    """One vehicle's view of the world at the start of a slot."""

    est: VehicleEstimate
    route: Route
    x_s: float
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
    mode: str = Mode.SD_APPROACH
    f: int = 0
    t: int = 0
    known_enters: dict[int, EnterMessage] = field(default_factory=dict)
    known_acks: set[int] = field(default_factory=set)
    expected_peers: set[int] = field(default_factory=set)
    own_enter: EnterMessage | None = None
    ack_sent: bool = False
    resend_ack: bool = False  # the next failed slot after the ACK resends it

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
        self.resend_ack = False


def planned_tau(snapshot: SensorSnapshot) -> float:
    """Arrival time at the intersection center under the planned dynamics.

    Models the cruise control the vehicle applies once it proceeds: a
    positive desired acceleration is applied as is; otherwise the vehicle
    holds its cruise speed ``v_des``, first regaining it at
    ``resume_accel`` when it has been slowed or stopped. The announced time
    is therefore the one the vehicle actually drives. A vehicle already at
    or past the center (a yielder held deep in its path) has arrived: 0.
    """
    est = snapshot.est
    if est.x_hat >= snapshot.x_s:
        return 0.0
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


def competitors(snapshot: SensorSnapshot) -> set[int]:
    """The sensed vehicles an ENTER round runs against: on another lane,
    not yet exited, and within the sensing radius of the center."""
    clane, radius = snapshot.route.clane, snapshot.radius
    return {
        uid
        for uid, o_clane, _, dist, _, _, exited, _ in snapshot.others
        if not exited and o_clane != clane and dist <= radius
    }


def build_enter(snapshot: SensorSnapshot) -> EnterMessage:
    return EnterMessage(
        uid=snapshot.est.uid,
        clane=snapshot.route.clane,
        nlane=snapshot.route.nlane,
        tau_mti=planned_tau(snapshot),
    )


def sd_main_step(
    state: ProtocolState, sensed: SensorSnapshot
) -> tuple[ProtocolState, str]:
    """Sensor-based decision while approaching the intersection.

    COND1: nobody near the intersection, cross carefully on sensors alone.
    COND3: somebody on another lane signals an ongoing competition, wait.
    Otherwise switch to V2V against the sensed competitor set. The paper's
    COND2, following a car ahead on the own lane, cannot arise: ``Scenario``
    allows one car per approach lane.
    """
    if state.mode is not Mode.SD_APPROACH:
        raise ValueError("sd_main_step requires SD_APPROACH mode")
    clane, radius = sensed.route.clane, sensed.radius
    near = signalling = False
    for _, o_clane, _, dist, _, light, exited, _ in sensed.others:
        if not exited:
            near = near or dist <= radius
            signalling = signalling or (o_clane != clane and light)
    if not near:
        return state, SDDecision.USE_SD_CROSS
    if signalling:
        return state, SDDecision.USE_SD_WAIT
    state.reset_round(competitors(sensed), build_enter(sensed))
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
    io = SlotIO()

    if state.t == 1:
        io.outbox = frozenset({state.own_enter})
        return state, io

    if not state.ack_sent:
        if state.expected_peers <= state.known_enters.keys():
            state.ack_sent = True
            state.known_acks.add(state.uid)
            io.outbox = frozenset({AckMessage(uid=state.uid)})
            return state, io
        return _register_failure(state, io, state.own_enter)

    if state.expected_peers <= state.known_acks:
        io.action = Action.INITIATE_MAINCTRL
        return state, io
    resend = AckMessage(uid=state.uid) if state.resend_ack else state.own_enter
    state.resend_ack = not state.resend_ack
    return _register_failure(state, io, resend)


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
    state: ProtocolState, io: SlotIO, resend: V2VMessage
) -> tuple[ProtocolState, SlotIO]:
    state.f += 1
    if state.f > state.F:
        state.mode = Mode.SD_FALLBACK
        io.action = Action.SWITCH_TO_SD
        return state, io
    io.outbox = frozenset({resend})
    return state, io


def exit_step(state: ProtocolState, sensed: SensorSnapshot) -> ProtocolState:
    """End the wait of a yielding vehicle after the main control decision.

    The engine's wait rule holds the yielder until sensing shows every
    proceeding competitor gone; then it either starts a fresh ENTER round
    against the remaining competitors or, with nobody left, proceeds
    directly (CROSSING).
    """
    if state.mode is not Mode.AWAIT_EXIT:
        raise ValueError("exit_step requires AWAIT_EXIT mode")
    peers = competitors(sensed)
    if peers:
        state.reset_round(peers, build_enter(sensed))
    else:
        state.mode = Mode.CROSSING
    return state


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
) -> EnterRoundResult:
    """Run a bare ENTER round, logged: every vehicle starts in the same slot
    and a ``Scripted`` channel loses exactly the (receiver uid, slot) pairs
    in ``losses``, delivering through the engine's own ``sample_delivery``.
    The round runs until it resolves or for ``4*F + 16`` slots.

    Slots count from 1 (the first ENTER transmission). Message content is
    synthetic; only the exchange dynamics matter here.
    """
    if F < 0:
        raise ValueError("F must be nonnegative")
    uids = tuple(range(1, n_vehicles + 1))
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
    res = EnterRoundResult(
        mainctrl_slot={u: None for u in uids},
        fallback_slot={u: None for u in uids},
        final_states=states,
        log=[],
    )
    channel = Scripted(losses=frozenset(losses or ()))
    pending: dict[int, frozenset] = {u: frozenset() for u in uids}
    for slot in range(1, 4 * F + 17):
        outboxes: dict[int, frozenset] = {}
        for uid in uids:
            st = states[uid]
            if st.mode is not Mode.V2V_ENTER:
                continue
            st, io = enter_step(st, pending[uid])
            outboxes[uid] = io.outbox
            if io.action is Action.INITIATE_MAINCTRL:
                res.mainctrl_slot[uid] = slot
                st.mode = Mode.CROSSING
            elif io.action is Action.SWITCH_TO_SD:
                res.fallback_slot[uid] = slot
            res.log.append(
                {
                    "slot": slot,
                    "uid": uid,
                    "sent": sorted(encode_message(m) for m in io.outbox),
                    "received": sorted(encode_message(m) for m in pending[uid]),
                    "f": st.f,
                    "action": io.action,
                }
            )
        for uid in uids:
            if states[uid].mode is Mode.V2V_ENTER:
                links = [(sender, 0.0) for sender in outboxes if sender != uid]
                got, _, _ = sample_delivery(channel, uid, slot, links, outboxes, False, None)
                pending[uid] = frozenset(got)
        if all(states[u].mode is not Mode.V2V_ENTER for u in uids):
            break
    return res
