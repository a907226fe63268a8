"""Longitudinal vehicle kinematics, intersection geometry, and priority logic.

Everything here is a pure function of its inputs: arrival-time estimation,
collision-area determination from routes, proceed/yield verdicts, and the
minimal-braking yield deceleration. No simulation state is touched, so these
are safe to call from any context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Sentinel returned when a vehicle can never reach the target position.
UNREACHABLE = math.inf

#: Below this acceleration magnitude the quadratic arrival-time formula is
#: numerically unstable; fall back to the uniform-motion limit.
A_TOL = 1e-6

APPROACH_LANES = ("H1R", "H2R", "H3R", "H4R")
EXIT_LANES = ("H1L", "H2L", "H3L", "H4L")

_MANEUVER_NAMES = {1: "right", 2: "straight", 3: "left"}


class UnknownLaneError(ValueError):
    """Raised when a lane identifier is not one of the H1..H4 R/L lanes."""


@dataclass(frozen=True)
class VehicleEstimate:
    """A vehicle's estimated 1D state with a position-error bound.

    ``x_hat`` is the estimated longitudinal position in meters, ``v`` the
    velocity in m/s, ``a`` the acceleration in m/s². ``dx_bound`` bounds the
    position error, so the worst-case (furthest forward) position is
    ``x_hat + dx_bound``.
    """

    uid: int
    x_hat: float
    v: float
    a: float
    dx_bound: float = 0.0

    def __post_init__(self):
        if self.dx_bound < 0:
            raise ValueError("dx_bound must be nonnegative")

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
        if self._turn() == 0:
            raise ValueError(f"route {self.clane}->{self.nlane} is a U-turn")

    def _turn(self) -> int:
        return (EXIT_LANES.index(self.nlane) - APPROACH_LANES.index(self.clane)) % 4

    @property
    def approach(self) -> int:
        """Approach index 0..3, counterclockwise."""
        return APPROACH_LANES.index(self.clane)

    @property
    def maneuver(self) -> str:
        """One of 'right', 'straight', 'left'."""
        return _MANEUVER_NAMES[self._turn()]


def _traversal(route: Route) -> tuple[str, ...]:
    # Entry quadrant equals the approach index; a right turn uses only it,
    # straight adds the quadrant beyond, left sweeps three quadrants.
    k = route.approach
    n_cells = {"right": 1, "straight": 2, "left": 3}[route.maneuver]
    return tuple(f"S{((k + i) % 4) + 1}" for i in range(n_cells))


@dataclass(frozen=True)
class IntersectionGeometry:
    """Four-cell intersection geometry on per-approach 1D axes.

    ``x_s`` is the position of the intersection center along every approach
    axis and ``w`` the cell width. A route's path through the intersection is
    its ordered cell list, each cell spanning ``w`` meters of path, starting
    at ``x_s - w``.
    """

    x_s: float = 200.0
    w: float = 3.5
    occupancy_table: dict[tuple[str, str], tuple[str, ...]] = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.x_s) and math.isfinite(self.w) and self.w > 0):
            raise ValueError("geometry needs a finite x_s and a finite w above 0")
        table = {}
        for cl in APPROACH_LANES:
            for nl in EXIT_LANES:
                try:
                    r = Route(cl, nl)
                except ValueError:
                    continue
                table[(cl, nl)] = _traversal(r)
        object.__setattr__(self, "occupancy_table", table)

    @property
    def x_col(self) -> float:
        """Entry position of the intersection along any approach axis."""
        return self.x_s - self.w

    def occupancy(self, route: Route) -> tuple[str, ...]:
        return self.occupancy_table[(route.clane, route.nlane)]

    def cell_entry(self, route: Route, cell: str) -> float:
        """Position along the route's path where ``cell`` begins."""
        return self.x_col + self.occupancy(route).index(cell) * self.w

    def path_exit(self, route: Route) -> float:
        """Position at which the route has fully cleared the intersection."""
        return self.x_col + len(self.occupancy(route)) * self.w

    def cell_at(self, route: Route, x: float) -> str | None:
        """Cell occupied by a point vehicle at path position ``x``, if any."""
        rel = x - self.x_col
        if rel < 0:
            return None
        idx = int(rel // self.w)
        cells = self.occupancy(route)
        return cells[idx] if idx < len(cells) else None


@dataclass(frozen=True)
class PriorityVerdict:
    """Per-vehicle proceed/yield decisions plus each vehicle's collision set."""

    decisions: dict[int, bool]  # uid -> True iff the vehicle may proceed
    collision: dict[int, frozenset[str]]

    def proceeding(self) -> frozenset[int]:
        return frozenset(u for u, p in self.decisions.items() if p)

    def is_proceed(self, uid: int) -> bool:
        return self.decisions[uid]


def mean_time_to_intersection(est: VehicleEstimate, x_s: float) -> float:
    """Time for the estimated state to reach ``x_s`` under constant acceleration.

    Returns the smallest nonnegative root of ``x_hat + v*t + a*t^2/2 = x_s``,
    the uniform-motion limit when ``|a|`` is negligible, or ``UNREACHABLE``
    when the vehicle stops (or recedes) before getting there.

    Raises ``ValueError`` if the vehicle is already past ``x_s``.
    """
    dx = x_s - est.x_hat
    if dx < 0:
        raise ValueError(f"target {x_s} is behind the estimated position {est.x_hat}")
    if dx == 0:
        return 0.0
    v, a = est.v, est.a
    if abs(a) < A_TOL:
        if v <= 0:
            return UNREACHABLE
        return dx / v
    disc = v * v + 2.0 * a * dx
    if disc < 0:
        return UNREACHABLE  # decelerates to a stop short of x_s
    sq = math.sqrt(disc)
    roots = [t for t in ((-v + sq) / a, (-v - sq) / a) if t >= 0.0]
    if not roots:
        return UNREACHABLE
    return min(roots)


def collision_area(
    routes: dict[int, Route], geometry: IntersectionGeometry
) -> dict[int, frozenset[str]]:
    """Cells each vehicle shares with at least one other vehicle's path.

    ``COL_j`` is the union over all other vehicles of the pairwise
    intersection of traversal cell sets; an empty set means no conflict.
    """
    if not routes:
        raise ValueError("at least one route required")
    occ = {uid: set(geometry.occupancy(r)) for uid, r in routes.items()}
    col: dict[int, frozenset[str]] = {}
    for j in routes:
        shared: set[str] = set()
        for i in routes:
            if i != j:
                shared |= occ[j] & occ[i]
        col[j] = frozenset(shared)
    return col


def priority_decision(
    entries: dict[int, tuple[Route, float]],
    geometry: IntersectionGeometry,
    tau_th: float,
) -> PriorityVerdict:
    """First-come-first-served proceed/yield verdict over exchanged arrival times.

    A vehicle proceeds if its collision set is empty, if its arrival time is
    separated from the closest competitor by more than ``tau_th`` (temporal
    separation makes co-occupancy impossible), if it is strictly first, or on
    an exact arrival-time tie when it carries the largest uid among the tied
    vehicles. Ties compare the exchanged values exactly: every participant
    decides on identical message contents, so float equality is consistent
    across vehicles.
    """
    if tau_th <= 0:
        raise ValueError("tau_th must be positive")
    for uid, (_, tau) in entries.items():
        if not math.isfinite(tau):
            raise ValueError(f"non-finite arrival time for uid {uid}")
    col = collision_area({u: r for u, (r, _) in entries.items()}, geometry)
    taus = {u: t for u, (_, t) in entries.items()}
    decisions: dict[int, bool] = {}
    for j in entries:
        if not col[j]:
            decisions[j] = True
            continue
        others = [taus[i] for i in entries if i != j]
        if not others:
            decisions[j] = True
            continue
        m = min(others)
        if abs(taus[j] - m) > tau_th or taus[j] < m:
            decisions[j] = True
        elif taus[j] == m:
            tied = [i for i in entries if taus[i] == taus[j]]
            decisions[j] = j == max(tied)
        else:
            decisions[j] = False
    return PriorityVerdict(decisions=decisions, collision=col)


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
    if est.v <= 0:
        return False
    t_j = math.ceil(R / (est.v * T))
    mu = est.x_hat + est.v * t_j * T
    if sigma_x == 0:
        return mu >= ca_boundary
    # P{X >= b} for X ~ N(mu, sigma^2)
    prob = 0.5 * math.erfc((ca_boundary - mu) / (sigma_x * math.sqrt(2.0)))
    return prob >= epsilon
