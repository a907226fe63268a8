"""The benchmark's own reference computations.

Everything here is written apart from ``icsim`` and imports nothing from it:
the cell mapping of the four-cell intersection, the free-flow crossing time,
the closed-form consensus delay and its average over the burst-length law,
and the scope of the acceptance safety search (its conflicting route sets,
its loss windows and the size of each, by counting rather than enumerating).
"""

from __future__ import annotations

import itertools
import math
import random

X_S = 200.0  # intersection centre on every approach axis, m
W = 3.5  # cell width, m
T = 0.1  # slot length, s

APPROACHES = ("H1R", "H2R", "H3R", "H4R")
EXITS = ("H1L", "H2L", "H3L", "H4L")


def turn(clane: str, nlane: str) -> int:
    """1 for a right turn, 2 for straight on, 3 for a left turn."""
    t = (EXITS.index(nlane) - APPROACHES.index(clane)) % 4
    if t == 0:
        raise ValueError(f"{clane}->{nlane} is a U-turn")
    return t


def cells(clane: str, nlane: str) -> tuple[str, ...]:
    """Cells a route sweeps, in order: the entry quadrant is the approach's
    own, and each quarter turn to the left adds the next quadrant."""
    k = APPROACHES.index(clane)
    return tuple(f"S{(k + i) % 4 + 1}" for i in range(turn(clane, nlane)))


def cell_at(clane: str, nlane: str, x: float, x_s: float = X_S, w: float = W):
    """Cell holding a point vehicle at path position ``x``, or None."""
    rel = x - (x_s - w)
    if rel < 0:
        return None
    path = cells(clane, nlane)
    i = int(rel // w)
    return path[i] if i < len(path) else None


def path_exit(clane: str, nlane: str, x_s: float = X_S, w: float = W) -> float:
    return x_s - w + len(cells(clane, nlane)) * w


def free_flow_s(clane, nlane, x0, v0, x_s=X_S, w=W) -> float:
    """Time to clear the intersection at constant speed from ``x0``."""
    return (path_exit(clane, nlane, x_s, w) - x0) / v0


def co_occupancy(rows, routes, x_s=X_S, w=W) -> list[tuple[int, str, tuple]]:
    """(slot, cell, uids) for every cell that holds two vehicles in one slot.

    ``rows`` are (slot, uid, x) and ``routes`` maps uid to (clane, nlane).
    """
    by_slot: dict[int, dict[str, list[int]]] = {}
    for slot, uid, x in rows:
        c = cell_at(*routes[uid], x, x_s, w)
        if c is not None:
            by_slot.setdefault(slot, {}).setdefault(c, []).append(uid)
    return [
        (slot, c, tuple(us))
        for slot, held in sorted(by_slot.items())
        for c, us in sorted(held.items())
        if len(us) > 1
    ]


# --- consensus delay -------------------------------------------------------


def enter_delay(F: int, burst: int) -> int:
    """Slots from the first ENTER to MAINCTRL for one receive burst of
    ``burst`` slots: every two lost slots cost one ENTER/ACK resend pair."""
    return min(F, 2 * math.ceil(burst / 2)) + 3


def burst_weight(p: float, xi, m: int) -> float:
    """Weight of a burst of exactly ``m`` failed slots: geometric for
    independent slots, a persisting first failure when ``xi`` is given."""
    if xi is None:
        return (1.0 - p) ** m * p
    return p if m == 0 else (1.0 - p) * p * xi ** (m - 1)


def expected_delay(p: float, F: int, xi) -> float:
    """Mean of ``enter_delay`` over bursts 0..F, weights renormalised."""
    ws = [burst_weight(p, xi, m) for m in range(F + 1)]
    return sum(w * enter_delay(F, m) for m, w in enumerate(ws)) / sum(ws)


def v2v_usage(p: float, F: int, xi) -> float:
    """One minus the weight of the burst that exhausts the threshold."""
    return 1.0 - burst_weight(p, xi, F + 1)


# --- the acceptance safety-search scope -------------------------------------


def route(approach: int, quarter_turns: int) -> tuple[str, str]:
    return APPROACHES[approach], EXITS[(approach + quarter_turns) % 4]


def _conflict(routes) -> bool:
    sets = [set(cells(*r)) for r in routes]
    return any(a & b for a, b in itertools.combinations(sets, 2))


def conflicting_pairs() -> list[tuple]:
    """Route pairs that share a cell, the first car fixed on approach 0."""
    return [
        (route(0, t0), route(d, t1))
        for d in (1, 2, 3)
        for t0 in (1, 2, 3)
        for t1 in (1, 2, 3)
        if _conflict((route(0, t0), route(d, t1)))
    ]


def conflicting_triples() -> list[tuple]:
    out = []
    for approaches in ((0, 1, 2), (0, 1, 3), (0, 2, 3)):
        for turns in itertools.product((1, 2, 3), repeat=3):
            rs = tuple(route(k, t) for k, t in zip(approaches, turns))
            if _conflict(rs):
                out.append(rs)
    return out


FIRST_LOSS_SLOT = 2  # the first ENTER goes out in slot 2


class Block:
    """One (routes, F) cell of the search: every loss pattern of at most
    ``max_losses`` (receiver, slot) positions in the window of F+5 slots."""

    def __init__(self, routes, F: int, max_losses: int):
        self.routes = routes
        self.F = F
        self.max_losses = max_losses
        self.window_end = FIRST_LOSS_SLOT + F + 5 - 1
        self.positions = [
            (u, s)
            for u in range(1, len(routes) + 1)
            for s in range(FIRST_LOSS_SLOT, self.window_end + 1)
        ]
        n = len(self.positions)
        self.by_k = [math.comb(n, k) for k in range(max_losses + 1)]
        self.size = sum(self.by_k)

    def pattern(self, r: int) -> tuple:
        """The ``r``-th loss pattern, in ``itertools.combinations`` order
        with k = 0, 1, ... losses."""
        for k, c in enumerate(self.by_k):
            if r < c:
                return unrank_combination(self.positions, k, r)
            r -= c
        raise IndexError("pattern index out of range")


def unrank_combination(items, k: int, r: int) -> tuple:
    """The ``r``-th k-subset of ``items`` in lexicographic order."""
    out = []
    n = len(items)
    start = 0
    for left in range(k, 0, -1):
        for i in range(start, n):
            c = math.comb(n - i - 1, left - 1)
            if r < c:
                out.append(items[i])
                start = i + 1
                break
            r -= c
    return tuple(out)


def search_blocks() -> tuple[list[Block], list[Block]]:
    """The two-vehicle and the three-vehicle parts of the search."""
    two = [Block(p, F, 4) for F in (2, 3) for p in conflicting_pairs()]
    three = [Block(t, F, 2) for F in (2, 3) for t in conflicting_triples()]
    three.append(Block((route(0, 2), route(1, 2), route(2, 2)), 3, 4))
    return two, three


def stratified_sample(blocks, n: int, rng: random.Random):
    """``n`` distinct (block, pattern index) draws, spread over the blocks in
    proportion to their sizes (largest remainders first) and uniform within
    each, in shuffled order."""
    total = sum(b.size for b in blocks)
    quota = [n * b.size / total for b in blocks]
    take = [int(q) for q in quota]
    by_remainder = sorted(range(len(blocks)), key=lambda i: take[i] - quota[i])
    for i in by_remainder[: n - sum(take)]:
        take[i] += 1
    out = [(b, r) for b, k in zip(blocks, take) for r in rng.sample(range(b.size), k)]
    rng.shuffle(out)
    return out
