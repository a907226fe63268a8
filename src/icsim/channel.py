"""Lossy-link models producing per-slot delivery outcomes.

Four variants: a perfect channel, distance-dependent i.i.d. losses with an
exponential delivery-ratio law, a two-state correlated burst model, and a
scripted loss table for exact reproduction of failure scenarios. Each model
class carries its own behaviour: ``delivers``, its delivery law for one
receiver and slot; ``burst_law``, the burst-length parameters the analytics
average over; its JSON form (``to_dict``, read back through
``CHANNEL_TYPES`` by ``from_dict``, which takes the scenario loader's
number and integer readers, once the loader has found every field of
``REQUIRED``); and ``uses_rng``, whether it draws random numbers.
``sample_delivery`` is the one delivery step of both exchange loops, and
``ReceiverStream`` the per-receiver random stream that the random models
draw from: NumPy's ``default_rng([seed, uid])`` stream, in pure Python.
The burst-length law lives here too, for one length or for lengths 0..F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def pdr(d: float, lam: float) -> float:
    """Packet delivery ratio at distance ``d`` under decay rate ``lam``: e^(-lam*d)."""
    if d < 0:
        raise ValueError("distance must be nonnegative")
    if lam < 0:
        raise ValueError("decay rate must be nonnegative")
    return math.exp(-lam * d)


def _check_rate(lam: float) -> None:
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("decay rate must be finite and nonnegative")


@dataclass(frozen=True)
class Perfect:
    """Every message is delivered."""

    TYPE = "perfect"
    REQUIRED = ()
    uses_rng = False

    def delivers(self, receiver, slot, links, prior_lost, rng) -> list[bool]:
        return [True] * len(links)

    def burst_law(self, d: float) -> tuple[float, float | None]:
        return 1.0, None

    def to_dict(self) -> dict:
        return {"type": self.TYPE}

    @classmethod
    def from_dict(cls, d: dict, number, integer):
        return cls()


@dataclass(frozen=True)
class DistanceIID:
    """Independent per-slot losses; delivery probability e^(-lam*d)."""

    lam: float
    TYPE = "distance_iid"
    REQUIRED = ("lambda",)
    uses_rng = True

    def __post_init__(self):
        _check_rate(self.lam)

    def delivers(self, receiver, slot, links, prior_lost, rng) -> list[bool]:
        """One independent draw per link, in link order."""
        return [rng.random() < pdr(d, self.lam) for _, d in links]

    def burst_law(self, d: float) -> tuple[float, float | None]:
        return pdr(d, self.lam), None

    def to_dict(self) -> dict:
        return {"type": self.TYPE, "lambda": self.lam}

    @classmethod
    def from_dict(cls, d: dict, number, integer):
        return cls(lam=number(d["lambda"], "lambda"))


@dataclass(frozen=True)
class CorrelatedBurst:
    """Receiver-side burst losses: once a slot is lost, the next is lost
    with probability ``xi``; otherwise losses follow the distance law."""

    lam: float
    xi: float
    TYPE = "correlated"
    REQUIRED = ("lambda", "xi")
    uses_rng = True

    def __post_init__(self):
        _check_rate(self.lam)
        if not (0 <= self.xi < 1):
            raise ValueError("xi must be in [0, 1)")

    def delivers(self, receiver, slot, links, prior_lost, rng) -> list[bool]:
        """Receive omission is a receiver-side event: one draw per slot,
        taken at the weakest (longest) link, decides every link."""
        p_loss = self.xi if prior_lost else 1.0 - pdr(max(d for _, d in links), self.lam)
        return [rng.random() >= p_loss] * len(links)

    def burst_law(self, d: float) -> tuple[float, float | None]:
        return pdr(d, self.lam), self.xi

    def to_dict(self) -> dict:
        return {"type": self.TYPE, "lambda": self.lam, "xi": self.xi}

    @classmethod
    def from_dict(cls, d: dict, number, integer):
        return cls(lam=number(d["lambda"], "lambda"), xi=number(d["xi"], "xi"))


@dataclass(frozen=True)
class Scripted:
    """Explicit loss table: a (receiver uid, slot) pair present in ``losses``
    is lost; uids in ``all_lost`` lose every slot; everything else is
    delivered."""

    losses: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    all_lost: frozenset[int] = field(default_factory=frozenset)
    TYPE = "scripted"
    REQUIRED = ()
    uses_rng = False

    def delivers(self, receiver, slot, links, prior_lost, rng) -> list[bool]:
        ok = receiver not in self.all_lost and (receiver, slot) not in self.losses
        return [ok] * len(links)

    def burst_law(self, d: float) -> tuple[float, float | None]:
        raise TypeError(f"no burst-length law for channel model {self!r}")

    def to_dict(self) -> dict:
        return {
            "type": self.TYPE,
            "losses": sorted([u, s] for u, s in self.losses),
            "all_lost": sorted(self.all_lost),
        }

    @classmethod
    def from_dict(cls, d: dict, number, integer):
        losses = frozenset(
            (integer(u, "losses"), integer(s, "losses")) for u, s in d.get("losses", [])
        )
        all_lost = frozenset(integer(u, "all_lost") for u in d.get("all_lost", []))
        return cls(losses=losses, all_lost=all_lost)


ChannelModel = Perfect | DistanceIID | CorrelatedBurst | Scripted

#: JSON ``type`` tag -> channel model class.
CHANNEL_TYPES = {m.TYPE: m for m in (Perfect, DistanceIID, CorrelatedBurst, Scripted)}


def sample_delivery(
    model: ChannelModel,
    receiver: int,
    slot: int,
    links: list[tuple[int, float]],
    outboxes: dict[int, frozenset],
    prior_lost: bool,
    rng,
) -> tuple[set, set, bool]:
    """One receiver's slot of delivery from its in-range (sender, distance)
    links: the messages it receives, those it loses, and its next
    ``prior_lost`` (nothing received; unchanged when it has no link).

    Deterministic given the rng stream state; only models with ``uses_rng``
    draw from it. Every message of one sender shares its link's fate.
    """
    if not links:
        return set(), set(), prior_lost
    oks = model.delivers(receiver, slot, links, prior_lost, rng)
    delivered: set = set()
    lost: set = set()
    for (sender, _), ok in zip(links, oks):
        (delivered if ok else lost).update(outboxes[sender])
    return delivered, lost, not any(oks)


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(h: int, mult: int):
    """SeedSequence's ``hashmix``, which carries its hash constant from call to call."""

    def hashmix(value: int) -> int:
        nonlocal h
        value = (value ^ h) * (h := h * mult & _M32) & _M32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


class ReceiverStream:
    """The doubles of NumPy's ``default_rng([seed, uid]).random()``, bit for
    bit, without NumPy: ``SeedSequence([seed, uid])`` (a pool of four 32-bit
    words) seeds a PCG64, a 128-bit LCG with the XSL-RR output (O'Neill
    2014). ``seed`` and ``uid`` are nonnegative ints."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int, uid: int):
        # the entropy: each int's 32-bit words, low word first (0 is one word)
        words = [n >> k & _M32 for n in (seed, uid) for k in range(0, max(n.bit_length(), 1), 32)]
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hashmix(word))
        # generate_state(4, uint64): eight 32-bit words, paired low word first
        out = _hasher(0x8B51F9DD, 0x58F38DED)
        w = [out(pool[i % 4]) for i in range(8)]
        w0, w1, w2, w3 = (w[i] | w[i + 1] << 32 for i in range(0, 8, 2))
        # PCG64 seeding: from state 0, step, add the seed state, step
        self._inc = inc = ((w2 << 64 | w3) << 1 | 1) & _M128
        self._state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _M128

    def random(self) -> float:
        """The next double in [0, 1): the top 53 bits of the next output."""
        self._state = s = (self._state * _PCG_MULT + self._inc) & _M128
        x = (s >> 64 ^ s) & _M64
        rot = s >> 122
        return (((x >> rot | x << 64 - rot) & _M64) >> 11) * 2.0**-53


def burst_length_pmf(p: float, xi: float | None, m: int) -> float:
    """Probability of exactly ``m`` consecutive slot failures.

    With ``xi`` absent the slots are independent and the law is geometric:
    ``(1-p)^m * p``. With a transition probability ``xi`` the first failure
    occurs with probability ``1-p`` and persists with probability ``xi``:
    ``p`` for m = 0 and ``(1-p) * p * xi^(m-1)`` for m >= 1. The correlated
    form does not sum to one over all m; consumers normalize over the range
    they average on.
    """
    if not (0 <= p <= 1):
        raise ValueError("delivery probability must be in [0, 1]")
    if m < 0:
        raise ValueError("burst length must be nonnegative")
    if xi is not None and not (0 <= xi < 1):
        raise ValueError("xi must be in [0, 1)")
    return _burst_pmf(p, xi, m)


def burst_length_weights(p: float, xi: float | None, F: int) -> list[float]:
    """``burst_length_pmf(p, xi, m)`` for m = 0..F; the call for m = F checks the inputs."""
    last = burst_length_pmf(p, xi, F)
    return [_burst_pmf(p, xi, m) for m in range(F)] + [last]


def _burst_pmf(p: float, xi: float | None, m: int) -> float:
    if xi is None:
        return (1.0 - p) ** m * p
    return p if m == 0 else (1.0 - p) * p * xi ** (m - 1)
