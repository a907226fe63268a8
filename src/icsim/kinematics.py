"""Longitudinal vehicle kinematics, intersection geometry, and priority logic.

Everything here is a pure function of its inputs: arrival-time estimation,
collision-area determination from routes, proceed/yield verdicts, and the
minimal-braking yield deceleration. No simulation state is touched, so these
are safe to call from any context.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass
from typing import NamedTuple

#: Sentinel returned when a vehicle can never reach the target position.
UNREACHABLE = math.inf

#: Below this acceleration magnitude the quadratic arrival-time formula is
#: numerically unstable; fall back to the uniform-motion limit.
A_TOL = 1e-6

APPROACH_LANES = ("H1R", "H2R", "H3R", "H4R")
EXIT_LANES = ("H1L", "H2L", "H3L", "H4L")

#: Each route's cells in path order, by (approach lane, exit lane). The entry
#: cell is the approach's own quadrant, and a route turning k quarters
#: counterclockwise (1 right, 2 straight, 3 left) sweeps k quadrants.
OCCUPANCY = {
    (cl, nl): tuple(f"S{(k + i) % 4 + 1}" for i in range((j - k) % 4))
    for k, cl in enumerate(APPROACH_LANES)
    for j, nl in enumerate(EXIT_LANES)
    if j != k
}


class UnknownLaneError(ValueError):
    """Raised when a lane identifier is not one of the H1..H4 R/L lanes."""


class VehicleEstimate(NamedTuple):
    """A vehicle's estimated 1D state with a position-error bound.

    ``x_hat`` is the estimated longitudinal position in meters, ``v`` the
    velocity in m/s, ``a`` the acceleration in m/s². ``dx_bound`` bounds the
    position error, so the worst-case (furthest forward) position is
    ``x_hat + dx_bound``; ``Scenario`` refuses a negative bound.
    """

    uid: int
    x_hat: float
    v: float
    a: float
    dx_bound: float = 0.0

    @property
    def x_max(self) -> float:
        """Worst-case (most advanced) position estimate."""
        return self.x_hat + self.dx_bound


@dataclass(frozen=True)
class Route:
    """An approach lane / departure lane pair encoding one maneuver.

    Approach lanes are H1R..H4R counterclockwise; departure lanes H1L..H4L.
    A U-turn (departing on the own road) is not a valid route.
    """

    clane: str
    nlane: str

    def __post_init__(self):
        if self.clane not in APPROACH_LANES:
            raise UnknownLaneError(f"unknown approach lane {self.clane!r}")
        if self.nlane not in EXIT_LANES:
            raise UnknownLaneError(f"unknown departure lane {self.nlane!r}")
        if self.turn == 0:
            raise ValueError(f"route {self.clane}->{self.nlane} is a U-turn")

    @property
    def approach(self) -> int:
        """Approach index 0..3, counterclockwise."""
        return APPROACH_LANES.index(self.clane)

    @property
    def turn(self) -> int:
        """Quarter turns counterclockwise: 1 right, 2 straight, 3 left."""
        return (EXIT_LANES.index(self.nlane) - self.approach) % 4


#: The cells two routes share, for every ordered pair of ``OCCUPANCY`` keys.
SHARED_CELLS = {
    (a, b): frozenset(OCCUPANCY[a]).intersection(OCCUPANCY[b]) for a in OCCUPANCY for b in OCCUPANCY
}


@dataclass(frozen=True)
class IntersectionGeometry:
    """Four-cell intersection geometry on per-approach 1D axes.

    ``x_s`` is the position of the intersection center along every approach
    axis and ``w`` the cell width. A route's path through the intersection is
    its ordered cell list (``OCCUPANCY``), each cell spanning ``w`` meters of
    path, starting at ``x_s - w``.
    """

    x_s: float = 200.0
    w: float = 3.5

    def __post_init__(self):
        if not (math.isfinite(self.x_s) and math.isfinite(self.w) and self.w > 0):
            raise ValueError("geometry needs a finite x_s and a finite w above 0")

    @property
    def x_col(self) -> float:
        """Entry position of the intersection along any approach axis."""
        return self.x_s - self.w

    def occupancy(self, route: Route) -> tuple[str, ...]:
        return OCCUPANCY[(route.clane, route.nlane)]

    def cell_entry(self, route: Route, cell: str) -> float:
        """Position along the route's path where ``cell`` begins."""
        return self.x_col + self.occupancy(route).index(cell) * self.w

    def path_exit(self, route: Route) -> float:
        """Position at which the route has fully cleared the intersection."""
        return self.x_col + len(self.occupancy(route)) * self.w

    def cell_at(self, route: Route, x: float) -> str | None:
        """Cell occupied by a point vehicle at path position ``x``, if any."""
        return path_cell(self.occupancy(route), self.x_col, self.w, x)


def path_cell(cells: tuple[str, ...], x_col: float, w: float, x: float) -> str | None:
    """The cell of a path ``cells``, each ``w`` long from ``x_col``, that
    holds path position ``x``, if any."""
    rel = x - x_col
    if rel < 0:
        return None
    # compare before int(): a subnormal w can make the quotient infinite
    q = rel // w
    return cells[int(q)] if q < len(cells) else None


class PriorityVerdict(NamedTuple):
    """The uids that may proceed, and each vehicle's collision set; every
    other vehicle of the view yields."""

    proceeding: frozenset[int]
    collision: dict[int, frozenset[str]]


def mean_time_to_intersection(est: VehicleEstimate, x_s: float) -> float:
    """Time for the estimated state to reach ``x_s`` under constant acceleration.

    Returns the smallest nonnegative root of ``x_hat + v*t + a*t^2/2 = x_s``,
    the uniform-motion limit when ``|a|`` is negligible (the exact root for
    a vehicle at rest), or ``UNREACHABLE`` when the vehicle stops (or
    recedes) before getting there.

    Raises ``ValueError`` if the vehicle is already past ``x_s``.
    """
    _, x_hat, v, a, _ = est
    dx = x_s - x_hat
    if dx < 0:
        raise ValueError(f"target {x_s} is behind the estimated position {x_hat}")
    if dx == 0:
        return 0.0
    if abs(a) < A_TOL:
        if v > 0:
            return dx / v
        return math.sqrt(2.0 * dx / a) if v == 0 and a > 0 else UNREACHABLE
    disc = v * v + 2.0 * a * dx
    if disc < 0:
        return UNREACHABLE  # decelerates to a stop short of x_s
    sq = math.sqrt(disc)
    roots = [t for t in ((-v + sq) / a, (-v - sq) / a) if t >= 0.0]
    if not roots:
        return UNREACHABLE
    return min(roots)


def collision_area(routes: dict[int, Route]) -> dict[int, frozenset[str]]:
    """Cells each vehicle shares with at least one other vehicle's path.

    ``routes`` maps each uid to anything with a ``clane`` and an ``nlane``:
    a ``Route`` or an ENTER record. ``COL_j`` is the union over all other
    vehicles of the pairwise intersection of traversal cell sets, read off
    ``SHARED_CELLS``; an empty set means no conflict.
    """
    if not routes:
        raise ValueError("at least one route required")
    keys = [(uid, (r.clane, r.nlane)) for uid, r in routes.items()]
    col: dict[int, frozenset[str]] = {}
    for j, kj in keys:
        shared: frozenset[str] = frozenset()
        for i, ki in keys:
            if i != j:
                shared |= SHARED_CELLS[kj, ki]
        col[j] = shared
    return col


def priority_decision(view: Collection, tau_th: float) -> PriorityVerdict:
    """First-come-first-served proceed/yield verdict on one view: the ENTER
    records a round exchanged, anything with a ``uid``, a ``clane``, an
    ``nlane`` and the announced arrival time ``tau_mti``.

    A vehicle proceeds if its collision set is empty; otherwise it compares
    its arrival time only with the earliest other arrival, and proceeds if it
    is strictly first, more than ``tau_th`` after that one, or tied with it
    exactly and carrying the largest uid among the tied vehicles. Ties compare
    the exchanged values exactly: every participant decides on identical
    message contents, so float equality is consistent across vehicles, and
    the verdict does not depend on the order of ``view``. The
    rule is unsound: two later cars can both proceed through a shared cell
    (``fault_priority_min``), and slow cars more than ``tau_th`` apart can
    share one (``fault_slow_pair``); see the strict xfails ``TestVerdictSoundness``
    and ``TestSeparationWindows`` in tests/test_kinematics.py, and ROADMAP items 1-2.
    """
    if tau_th <= 0:
        raise ValueError("tau_th must be positive")
    records = {m.uid: m for m in view}
    if len(records) != len(view):
        raise ValueError("a view holds one ENTER record per uid")
    taus = {uid: m.tau_mti for uid, m in records.items()}
    for uid, tau in taus.items():
        if not math.isfinite(tau):
            raise ValueError(f"non-finite arrival time for uid {uid}")
    col = collision_area(records)
    proceeding = []
    for j, tau in taus.items():
        if col[j]:
            first = min(t for i, t in taus.items() if i != j)
            if tau == first:  # tied with the earliest: the largest tied uid goes
                if j != max(i for i, t in taus.items() if t == tau):
                    continue
            elif tau > first and tau - first <= tau_th:
                continue
        proceeding.append(j)
    return PriorityVerdict(frozenset(proceeding), col)


def yield_acceleration(
    est: VehicleEstimate, a_pr: float, x_col: float, D: float
) -> float:
    """Constant deceleration that loses exactly ``D`` meters by the time the
    worst-case position would have reached the collision-area entry.

    The remaining time to the collision area is computed at the worst-case
    position ``x_hat + dx_bound`` under the preferred acceleration ``a_pr``.
    If that entry is unreachable anyway the preferred acceleration is returned
    unchanged (no yield needed).
    """
    if D < 0:
        raise ValueError("displacement reduction D must be nonnegative")
    if x_col <= est.x_max:
        raise ValueError("collision entry must lie ahead of the worst-case position")
    worst = VehicleEstimate(
        uid=est.uid, x_hat=est.x_max, v=est.v, a=a_pr, dx_bound=0.0
    )
    tau_col = mean_time_to_intersection(worst, x_col)
    if tau_col == UNREACHABLE:
        return a_pr
    if tau_col <= 0:
        raise ValueError("nonpositive time to collision area")
    return a_pr - 2.0 * D / (tau_col * tau_col)


def enter_trigger(
    est: VehicleEstimate,
    sigma_x: float,
    R: float,
    T: float,
    ca_boundary: float,
    epsilon: float,
) -> bool:
    """Decide whether coordination must start now.

    Looks ahead ``ceil(R / (v*T))`` slots at constant velocity, forms the
    Gaussian predictive position with standard deviation ``sigma_x``, and
    fires when the probability of having reached ``ca_boundary`` is at least
    ``epsilon``. A vehicle that is not moving forward never triggers.
    """
    if R <= 0 or T <= 0:
        raise ValueError("R and T must be positive")
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must be in (0, 1)")
    if sigma_x < 0:
        raise ValueError("sigma_x must be nonnegative")
    _, x_hat, v, _, _ = est
    if v <= 0:
        return False
    t_j = math.ceil(R / (v * T))
    mu = x_hat + v * t_j * T
    if sigma_x == 0:
        return mu >= ca_boundary
    # P{X >= b} for X ~ N(mu, sigma^2)
    prob = 0.5 * math.erfc((ca_boundary - mu) / (sigma_x * math.sqrt(2.0)))
    return prob >= epsilon
