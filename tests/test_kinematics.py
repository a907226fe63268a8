"""Arrival-time, collision-area, priority, yield, and trigger tests."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsim.kinematics import (
    OCCUPANCY,
    SHARED_CELLS,
    UNREACHABLE,
    IntersectionGeometry,
    Route,
    UnknownLaneError,
    VehicleEstimate,
    collision_area,
    enter_trigger,
    mean_time_to_intersection,
    path_cell,
    priority_decision,
    yield_acceleration,
)
from icsim.protocol import EnterMessage
from test_acceptance import conflicting_pairs, conflicting_triples

GEO = IntersectionGeometry(x_s=200.0, w=3.5)


def est(x=0.0, v=0.0, a=0.0, dx=0.0, uid=1):
    return VehicleEstimate(uid=uid, x_hat=x, v=v, a=a, dx_bound=dx)


def integrate_until(x0, v0, a, x_target, dt=1e-3, t_max=1e4):
    """Brute-force forward integration; the independent oracle for arrival
    times. Returns the crossing time or None if the vehicle stops first."""
    x, v, t = x0, v0, 0.0
    while t < t_max:
        if x >= x_target:
            return t
        if v <= 0 and a <= 0:
            return None
        x += v * dt + 0.5 * a * dt * dt
        v += a * dt
        t += dt
    return None


class TestMeanTimeToIntersection:
    def test_uniform_motion(self):
        assert mean_time_to_intersection(est(0, 10, 0), 100) == pytest.approx(10.0)

    def test_pure_acceleration_from_rest(self):
        assert mean_time_to_intersection(est(0, 0, 2), 100) == pytest.approx(10.0)
        # below A_TOL a car at rest still gets its exact root, not UNREACHABLE
        assert mean_time_to_intersection(est(0, 0, 2e-7), 100) == pytest.approx(math.sqrt(1e9))

    def test_decelerating_never_arrives(self):
        # discriminant v^2 + 2 a dx = 25 - 400 < 0
        assert mean_time_to_intersection(est(0, 5, -2), 100) is UNREACHABLE
        assert integrate_until(0, 5, -2, 100) is None

    def test_accelerating_matches_integration(self):
        tau = mean_time_to_intersection(est(0, 10, 1), 100)
        oracle = integrate_until(0, 10, 1, 100)
        assert abs(tau - oracle) < 1e-2  # dt-limited oracle resolution
        assert tau == pytest.approx(-10 + math.sqrt(300), abs=1e-9)

    def test_already_there(self):
        assert mean_time_to_intersection(est(50, 3, 0), 50) == 0.0

    def test_behind_target_rejected(self):
        with pytest.raises(ValueError):
            mean_time_to_intersection(est(120, 10, 0), 100)

    def test_stopped_no_accel_unreachable(self):
        assert mean_time_to_intersection(est(0, 0, 0), 10) is UNREACHABLE

    @given(
        v=st.floats(0.5, 40),
        a=st.floats(0, 5),
        dx1=st.floats(1, 500),
        dx2=st.floats(1, 500),
    )
    def test_monotone_in_distance(self, v, a, dx1, dx2):
        lo, hi = sorted((dx1, dx2))
        if hi - lo < 1e-6:
            return
        t_lo = mean_time_to_intersection(est(0, v, a), lo)
        t_hi = mean_time_to_intersection(est(0, v, a), hi)
        assert t_lo < t_hi

    @given(
        v=st.floats(0.1, 40),
        a=st.one_of(
            st.just(0.0), st.floats(1e-5, 5), st.floats(-3, -1e-5)
        ),
        dx=st.floats(0.5, 300),
    )
    @settings(max_examples=200)
    def test_consistency_with_closed_form_integration(self, v, a, dx):
        # |a| stays outside the numerical dead band, inside which the
        # acceleration is deliberately treated as zero
        tau = mean_time_to_intersection(est(0, v, a), dx)
        if tau is UNREACHABLE:
            return
        x_land = v * tau + 0.5 * a * tau * tau
        assert x_land == pytest.approx(dx, abs=1e-6)

    def test_dead_band_uses_uniform_motion(self):
        # accelerations below the tolerance are treated as exactly zero
        assert mean_time_to_intersection(est(0, 10, 1e-9), 100) == pytest.approx(10.0)
        assert mean_time_to_intersection(est(0, 10, -1e-9), 100) == pytest.approx(10.0)


class TestCollisionArea:
    def test_all_right_turns_no_conflict(self):
        routes = {
            1: Route("H1R", "H2L"),
            2: Route("H2R", "H3L"),
            3: Route("H3R", "H4L"),
            4: Route("H4R", "H1L"),
        }
        col = collision_area(routes)
        assert all(c == frozenset() for c in col.values())

    def test_single_car_no_conflict(self):
        col = collision_area({7: Route("H1R", "H3L")})
        assert col[7] == frozenset()

    def test_perpendicular_straights_conflict(self):
        routes = {1: Route("H1R", "H3L"), 2: Route("H2R", "H4L")}
        col = collision_area(routes)
        assert col[1] and col[2]
        assert col[1] == col[2] == frozenset({"S2"})

    def test_opposite_straights_disjoint(self):
        routes = {1: Route("H1R", "H3L"), 2: Route("H3R", "H1L")}
        col = collision_area(routes)
        assert col[1] == col[2] == frozenset()

    def test_left_turn_against_oncoming_straight(self):
        routes = {1: Route("H1R", "H4L"), 2: Route("H3R", "H1L")}
        col = collision_area(routes)
        assert col[1] == col[2] == frozenset({"S3"})

    def test_route_tables_are_built_from_the_occupancy_table(self):
        assert len(OCCUPANCY) == 12 and len(SHARED_CELLS) == 12 * 12
        for a, b in itertools.product(OCCUPANCY, repeat=2):
            assert SHARED_CELLS[a, b] == set(OCCUPANCY[a]) & set(OCCUPANCY[b]), (a, b)

    def test_every_conflicting_pair_and_triple_by_the_set_definition(self):
        # on routes and on the ENTER records that carry them alike
        cases = [*conflicting_pairs(), *conflicting_triples()]
        assert len(cases) == 17 + 75
        for routes in cases:
            occ = {u: set(GEO.occupancy(r)) for u, r in enumerate(routes, 1)}
            want = {
                j: frozenset().union(*(occ[j] & occ[i] for i in occ if i != j)) for j in occ
            }
            assert collision_area(dict(enumerate(routes, 1))) == want, routes
            records = {m.uid: m for m in enters(routes, [0.0] * len(routes))}
            assert collision_area(records) == want, routes

    def test_cell_counts_by_maneuver(self):
        assert len(GEO.occupancy(Route("H1R", "H2L"))) == 1
        assert len(GEO.occupancy(Route("H1R", "H3L"))) == 2
        assert len(GEO.occupancy(Route("H1R", "H4L"))) == 3

    def test_unknown_lane_rejected(self):
        with pytest.raises(UnknownLaneError):
            Route("H5R", "H1L")

    @given(st.data())
    @settings(max_examples=100)
    def test_symmetry(self, data):
        approaches = data.draw(
            st.lists(st.sampled_from([0, 1, 2, 3]), min_size=2, max_size=4, unique=True)
        )
        routes = {}
        for i, k in enumerate(approaches):
            turn = data.draw(st.sampled_from([1, 2, 3]), label=f"turn{i}")
            routes[i + 1] = Route(f"H{k + 1}R", f"H{((k + turn) % 4) + 1}L")
        col = collision_area(routes)
        occ = {u: set(GEO.occupancy(r)) for u, r in routes.items()}
        for j in routes:
            for i in routes:
                if i == j:
                    continue
                for cell in occ[i] & occ[j]:
                    assert cell in col[i] and cell in col[j]


class TestPriorityDecision:
    def conflicting(self, tau1, tau2, uid1=1, uid2=2):
        return [
            EnterMessage(uid1, "H1R", "H3L", tau1),
            EnterMessage(uid2, "H2R", "H4L", tau2),
        ]

    def test_strict_fcfs(self):
        v = priority_decision(self.conflicting(4.0, 6.0), tau_th=2.0)
        assert v.proceeding == frozenset({1})

    def test_uid_tie_break_larger_wins(self):
        v = priority_decision(self.conflicting(5.0, 5.0, uid1=3, uid2=7), tau_th=2.0)
        assert v.proceeding == frozenset({7})

    def test_no_conflict_both_proceed(self):
        view = [EnterMessage(1, "H1R", "H2L", 4.0), EnterMessage(2, "H2R", "H3L", 4.5)]
        v = priority_decision(view, tau_th=2.0)
        assert v.proceeding == frozenset({1, 2})
        assert v.collision[1] == frozenset()

    def test_wide_temporal_gap_lets_both_proceed(self):
        v = priority_decision(self.conflicting(1.0, 10.0), tau_th=2.0)
        assert v.proceeding == frozenset({1, 2})

    def test_three_way_tie_single_winner(self):
        view = [
            EnterMessage(1, "H1R", "H3L", 5.0),
            EnterMessage(2, "H2R", "H4L", 5.0),
            EnterMessage(4, "H4R", "H2L", 5.0),
        ]
        v = priority_decision(view, tau_th=2.0)
        assert v.proceeding == frozenset({4})

    def test_nonfinite_tau_rejected(self):
        with pytest.raises(ValueError):
            priority_decision(self.conflicting(float("inf"), 4.0), 2.0)

    def test_two_records_of_one_uid_rejected(self):
        # the dropped one would depend on the view's order
        with pytest.raises(ValueError, match="one ENTER record per uid"):
            priority_decision(self.conflicting(4.0, 6.0, uid2=1), 2.0)

    @given(
        tau1=st.floats(0, 20),
        tau2=st.floats(0, 20),
        tau_th=st.floats(0.5, 5),
    )
    @settings(max_examples=300)
    def test_close_conflicting_pair_exactly_one_proceeds(self, tau1, tau2, tau_th):
        n = len(priority_decision(self.conflicting(tau1, tau2), tau_th).proceeding)
        if abs(tau1 - tau2) > tau_th:
            assert n == 2  # temporally separated, both may go
        else:
            assert n == 1

    def test_determinism(self):
        view = self.conflicting(4.4, 4.9)
        assert priority_decision(view, 2.0) == priority_decision(view, 2.0)

    def test_every_order_of_every_conflicting_triple_gives_one_verdict(self):
        # exact ties, gaps of exactly tau_th, and gaps past it
        taus = [0.0, 1.0, 2.0, 3.0, 5.0]
        checked = 0
        for routes in conflicting_triples():
            for ts in itertools.product(taus, repeat=3):
                view = enters(routes, ts)
                want = priority_decision(frozenset(view), 2.0)
                for order in itertools.permutations(view):
                    assert priority_decision(order, 2.0) == want, (routes, ts, order)
                checked += 1
        assert checked == 75 * 5**3


class TestYieldAcceleration:
    def test_zero_displacement_no_change(self):
        assert yield_acceleration(est(0, 10, 0), 0.0, 50.0, 0.0) == 0.0

    def test_hand_worked_example(self):
        # tau to 50 m at 10 m/s is 5 s; a = 0 - 2*5/25 = -0.4
        a = yield_acceleration(est(0, 10, 0), 0.0, 50.0, 5.0)
        assert a == pytest.approx(-0.4)
        # cross-check: displacement deficit over 5 s is exactly D
        deficit = (10 * 5 + 0.0) - (10 * 5 + 0.5 * a * 25)
        assert deficit == pytest.approx(5.0)

    def test_larger_error_bound_brakes_harder(self):
        loose = yield_acceleration(est(0, 10, 0, dx=5.0), 0.0, 50.0, 5.0)
        tight = yield_acceleration(est(0, 10, 0, dx=0.0), 0.0, 50.0, 5.0)
        assert loose < tight

    def test_unreachable_entry_keeps_preferred(self):
        # decelerating so hard the entry is never reached
        assert yield_acceleration(est(0, 5, 0), -2.0, 100.0, 5.0) == -2.0

    def test_entry_behind_worst_case_rejected(self):
        with pytest.raises(ValueError):
            yield_acceleration(est(48, 10, 0, dx=5.0), 0.0, 50.0, 5.0)

    @given(
        v=st.floats(1, 30),
        a_pr=st.floats(-1, 3),
        gap=st.floats(5, 300),
        D=st.floats(0, 20),
        dx=st.floats(0, 4),
    )
    @settings(max_examples=300)
    def test_displacement_identity(self, v, a_pr, gap, D, dx):
        e = est(0, v, a_pr, dx=dx)
        x_col = e.x_max + gap
        a = yield_acceleration(e, a_pr, x_col, D)
        worst = VehicleEstimate(uid=1, x_hat=e.x_max, v=v, a=a_pr, dx_bound=0)
        tau = mean_time_to_intersection(worst, x_col)
        if tau is UNREACHABLE:
            assert a == a_pr  # no yield applied when the entry is unreachable
            return
        lost = (v * tau + 0.5 * a_pr * tau * tau) - (v * tau + 0.5 * a * tau * tau)
        assert lost == pytest.approx(D, rel=1e-9, abs=1e-9)


class TestPathCell:
    @pytest.mark.parametrize("w", [5e-324, 1e-310])
    def test_subnormal_width_is_past_the_path(self, w):
        # (x - x_col) / w overflows to infinity: past every cell, not an error
        assert path_cell(("S1", "S2"), 196.5, w, 200.0) is None
        assert path_cell(("S1", "S2"), 196.5, w, 196.5) == "S1"


class TestEnterTrigger:
    def test_degenerate_ahead(self):
        # predicted position past the boundary, no uncertainty
        assert enter_trigger(est(0, 10, 0), 0.0, 100.0, 0.1, 50.0, 1e-9)

    def test_degenerate_behind(self):
        assert not enter_trigger(est(0, 1, 0), 0.0, 10.0, 0.1, 50.0, 1e-9)

    def test_gaussian_symmetry_at_boundary(self):
        # predicted position exactly at the boundary: probability one half
        e = est(0, 10, 0)
        t_j = math.ceil(100.0 / (10 * 0.1))
        boundary = 0 + 10 * t_j * 0.1
        assert enter_trigger(e, 10.0, 100.0, 0.1, boundary, 0.5)
        assert enter_trigger(e, 10.0, 100.0, 0.1, boundary, 0.1)
        assert not enter_trigger(e, 10.0, 100.0, 0.1, boundary, 0.500001)

    def test_not_moving_never_triggers(self):
        assert not enter_trigger(est(0, 0, 2), 5.0, 100.0, 0.1, 50.0, 1e-9)
        assert not enter_trigger(est(0, -3, 0), 5.0, 100.0, 0.1, 50.0, 1e-9)

    @given(
        eps1=st.floats(1e-9, 0.999),
        eps2=st.floats(1e-9, 0.999),
        sigma=st.floats(0.1, 30),
        x=st.floats(0, 180),
    )
    @settings(max_examples=200)
    def test_monotone_in_epsilon(self, eps1, eps2, sigma, x):
        lo, hi = sorted((eps1, eps2))
        e = est(x, 12, 0)
        fired_hi = enter_trigger(e, sigma, 150.0, 0.1, 196.5, hi)
        if fired_hi:
            assert enter_trigger(e, sigma, 150.0, 0.1, 196.5, lo)


def enters(routes, taus):
    """One ENTER record per car, uids from 1, for ``routes`` and ``taus`` in step."""
    return [EnterMessage(i, r.clane, r.nlane, t) for i, (r, t) in enumerate(zip(routes, taus), 1)]


def clashes(view, tau_th=2.0):
    """Pairs of cars that both proceed, share a cell of their paths, and
    arrive within ``tau_th`` of each other: the verdict's own separation
    rule, checked against the occupancy table, not the collision area."""
    go = priority_decision(view, tau_th).proceeding
    by_uid = {m.uid: m for m in view}
    return [
        (i, j)
        for i, j in itertools.combinations(sorted(go), 2)
        if set(OCCUPANCY[by_uid[i].clane, by_uid[i].nlane])
        & set(OCCUPANCY[by_uid[j].clane, by_uid[j].nlane])
        and abs(by_uid[i].tau_mti - by_uid[j].tau_mti) <= tau_th
    ]


class TestVerdictSoundness:
    """No two proceeding cars share a cell while their arrival times are
    within ``tau_th``; engine-free, on the verdict alone."""

    def test_every_conflicting_pair_on_a_quarter_second_grid(self):
        taus = [k / 4 for k in range(41)]  # 0 to 10 s
        checked = 0
        for r1, r2 in conflicting_pairs():
            for t1, t2 in itertools.product(taus, repeat=2):
                assert clashes(enters((r1, r2), (t1, t2))) == [], (r1, r2, t1, t2)
                checked += 1
        assert checked == 28_577

    @pytest.mark.xfail(
        strict=True,
        reason="each car is compared only with the earliest other arrival, so "
        "two later cars can both proceed through a cell they share",
    )
    def test_every_conflicting_triple_on_a_half_second_grid(self):
        # stops at the first unsound verdict, which it names
        taus = [k / 2 for k in range(17)]  # 0 to 8 s
        checked = 0
        for routes in conflicting_triples():
            for ts in itertools.product(taus, repeat=3):
                assert clashes(enters(routes, ts)) == [], (routes, ts)
                checked += 1
        assert checked == 75 * 17**3

    @pytest.mark.xfail(
        strict=True,
        reason="each car is compared only with the earliest other arrival, so "
        "cars 2 and 3, 3 s and 3.3 s after car 1, both proceed through S3",
    )
    def test_three_cars_that_clear_only_the_earliest(self):
        routes = (Route("H1R", "H3L"), Route("H2R", "H4L"), Route("H3R", "H1L"))
        assert clashes(enters(routes, (5.0, 8.0, 8.3))) == []


def cell_windows(route, tau, v):
    """The [enter, exit) time at which a car holding speed ``v`` occupies
    each cell of its path, if it reaches the intersection centre at
    ``tau``: a cell runs from its ``cell_entry`` to the next cell's, the
    last one to ``path_exit``."""
    cells = GEO.occupancy(route)
    bounds = [GEO.cell_entry(route, c) for c in cells] + [GEO.path_exit(route)]
    return {
        c: (tau + (bounds[k] - GEO.x_s) / v, tau + (bounds[k + 1] - GEO.x_s) / v)
        for k, c in enumerate(cells)
    }


class TestSeparationWindows:
    """Engine-free: two cars whose announced taus are more than ``tau_th``
    apart both proceed, so at constant speed they must not hold a shared
    cell at the same time."""

    @pytest.mark.xfail(
        strict=True,
        reason="tau_th separates arrival times at the centre, not per-cell "
        "windows: below 6 m/s a 2.05-s gap still lets two cars share a cell",
    )
    def test_separated_pairs_never_share_a_cell_at_once(self):
        # stops at the first overlap, which it names; the grid has 3,307
        # overlapping pairs among its 17 * 14**2 * 12 = 39,984
        speeds = range(1, 15)
        gaps = [2.05 + k / 4 for k in range(12)]  # 2.05 to 4.8 s, past tau_th = 2
        checked = 0
        for r1, r2 in conflicting_pairs():
            shared = sorted(set(GEO.occupancy(r1)) & set(GEO.occupancy(r2)))
            for v1, v2, gap in itertools.product(speeds, speeds, gaps):
                w1, w2 = cell_windows(r1, 0.0, v1), cell_windows(r2, gap, v2)
                for c in shared:
                    (a1, b1), (a2, b2) = w1[c], w2[c]
                    assert not (a1 < b2 and a2 < b1), (
                        f"{r1.clane}->{r1.nlane} at {v1} m/s and {r2.clane}->{r2.nlane} "
                        f"at {v2} m/s, {gap:.2f} s later, "
                        f"both hold {c}: [{a1:.2f}, {b1:.2f}) and [{a2:.2f}, {b2:.2f})"
                    )
                checked += 1
        assert checked == 39_984


class TestRefusals:
    """Arguments outside a function's domain raise ``ValueError``, named."""

    @pytest.mark.parametrize(
        "call,error",
        [
            (lambda: priority_decision(enters(conflicting_pairs()[0], (4.0, 6.0)), 0), "tau_th"),
            (lambda: collision_area({}), "at least one route"),
            (lambda: yield_acceleration(est(0, 10, 0), 0.0, 50.0, -1.0), "D must be nonnegative"),
            (lambda: enter_trigger(est(0, 10), 0.0, 0.0, 0.1, 190.0, 0.5), "R and T"),
            (lambda: enter_trigger(est(0, 10), 0.0, 500.0, 0.0, 190.0, 0.5), "R and T"),
            (lambda: enter_trigger(est(0, 10), 0.0, 500.0, 0.1, 190.0, 0.0), "epsilon"),
            (lambda: enter_trigger(est(0, 10), 0.0, 500.0, 0.1, 190.0, 1.0), "epsilon"),
            (lambda: enter_trigger(est(0, 10), -1.0, 500.0, 0.1, 190.0, 0.5), "sigma_x"),
        ],
        ids=[
            "tau_th 0", "no routes", "negative D", "R 0", "T 0", "epsilon 0", "epsilon 1",
            "negative sigma_x",
        ],
    )
    def test_raises(self, call, error):
        with pytest.raises(ValueError, match=error):
            call()
