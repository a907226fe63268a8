"""Lossy-link models producing per-slot delivery outcomes.

Four variants: a perfect channel, distance-dependent i.i.d. losses with an
exponential delivery-ratio law, a two-state correlated burst model, and a
scripted loss table for exact reproduction of failure scenarios. Each model
class carries its own behaviour: ``delivers``, its delivery law for one
receiver and slot; ``burst_law``, the burst-length parameters the analytics
average over; its JSON form (``to_dict``, read back through
``CHANNEL_TYPES``); and ``uses_rng``, whether it draws random numbers.
``sample_delivery`` is the one delivery step of both exchange loops.
Burst-length probability laws used by the analytics live here too.
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
    uses_rng = False

    def delivers(self, receiver, slot, links, prior_lost, rng) -> list[bool]:
        return [True] * len(links)

    def burst_law(self, d: float) -> tuple[float, float | None]:
        return 1.0, None

    def to_dict(self) -> dict:
        return {"type": self.TYPE}

    @classmethod
    def from_dict(cls, d: dict):
        return cls()


@dataclass(frozen=True)
class DistanceIID:
    """Independent per-slot losses; delivery probability e^(-lam*d)."""

    lam: float
    TYPE = "distance_iid"
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
    def from_dict(cls, d: dict):
        return cls(lam=float(d["lambda"]))


@dataclass(frozen=True)
class CorrelatedBurst:
    """Receiver-side burst losses: once a slot is lost, the next is lost
    with probability ``xi``; otherwise losses follow the distance law."""

    lam: float
    xi: float
    TYPE = "correlated"
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
    def from_dict(cls, d: dict):
        return cls(lam=float(d["lambda"]), xi=float(d["xi"]))


@dataclass(frozen=True)
class Scripted:
    """Explicit loss table: a (receiver uid, slot) pair present in ``losses``
    is lost; uids in ``all_lost`` lose every slot; everything else is
    delivered."""

    losses: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    all_lost: frozenset[int] = field(default_factory=frozenset)
    TYPE = "scripted"
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
    def from_dict(cls, d: dict):
        losses = frozenset((int(u), int(s)) for u, s in d.get("losses", []))
        return cls(losses=losses, all_lost=frozenset(int(u) for u in d.get("all_lost", [])))


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
    if xi is None:
        return (1.0 - p) ** m * p
    if not (0 <= xi < 1):
        raise ValueError("xi must be in [0, 1)")
    if m == 0:
        return p
    return (1.0 - p) * p * xi ** (m - 1)
