"""Tests for the benchmark's own oracles (``bench/oracles.py``).

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import itertools
import math
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles as O  # noqa: E402

X_COL = O.X_S - O.W  # 196.5


class TestCellMapping:
    @pytest.mark.parametrize(
        "clane,nlane,want",
        [
            ("H1R", "H2L", ("S1",)),  # right turn: own quadrant only
            ("H1R", "H3L", ("S1", "S2")),  # straight on
            ("H1R", "H4L", ("S1", "S2", "S3")),  # left turn
            ("H3R", "H1L", ("S3", "S4")),
            ("H4R", "H3L", ("S4", "S1", "S2")),
        ],
    )
    def test_route_cells(self, clane, nlane, want):
        assert O.cells(clane, nlane) == want

    def test_u_turn_is_not_a_route(self):
        with pytest.raises(ValueError):
            O.cells("H2R", "H2L")

    def test_cell_boundaries(self):
        assert O.cell_at("H1R", "H4L", X_COL - 1e-9) is None
        assert O.cell_at("H1R", "H4L", X_COL) == "S1"
        assert O.cell_at("H1R", "H4L", X_COL + O.W) == "S2"
        assert O.cell_at("H1R", "H4L", X_COL + 3 * O.W - 1e-9) == "S3"
        assert O.cell_at("H1R", "H4L", X_COL + 3 * O.W) is None
        assert O.cell_at("H1R", "H2L", X_COL + O.W) is None

    def test_agrees_with_the_program_geometry(self):
        from icsim.kinematics import IntersectionGeometry, Route

        geo = IntersectionGeometry()
        for cl, nl in itertools.product(O.APPROACHES, O.EXITS):
            if O.APPROACHES.index(cl) == O.EXITS.index(nl):
                continue  # U-turn
            route = Route(cl, nl)
            assert geo.occupancy(route) == O.cells(cl, nl)
            for x in (190.0, 196.5, 199.9, 200.0, 203.49, 203.5, 207.0, 210.0):
                assert geo.cell_at(route, x) == O.cell_at(cl, nl, x)

    def test_co_occupancy(self):
        # car 1 sweeps S1 then S2, car 2 sweeps S2 then S3
        routes = {1: ("H1R", "H3L"), 2: ("H2R", "H4L")}
        rows = [(7, 1, X_COL + 0.5), (7, 2, X_COL + 4.0), (8, 1, X_COL + 5.0), (8, 2, X_COL + 1.0)]
        assert O.co_occupancy(rows, routes) == [(8, "S2", (1, 2))]


class TestFreeFlow:
    def test_exit_and_time(self):
        assert O.path_exit("H1R", "H3L") == pytest.approx(203.5)
        assert O.free_flow_s("H1R", "H3L", 100.0, 10.0) == pytest.approx(10.35)
        assert O.free_flow_s("H2R", "H3L", 180.0, 10.0) == pytest.approx(2.0)


class TestClosedForm:
    @pytest.mark.parametrize("burst,want", [(0, 3), (1, 5), (2, 5), (3, 7), (4, 7)])
    def test_figure_five_delays(self, burst, want):
        assert O.enter_delay(8, burst) == want

    def test_threshold_caps_the_delay(self):
        assert O.enter_delay(3, 10) == 6
        assert O.enter_delay(0, 5) == 3


class TestBurstLaw:
    def test_independent_law_sums_to_one(self):
        p = 0.7
        assert sum(O.burst_weight(p, None, m) for m in range(400)) == pytest.approx(1.0)

    def test_correlated_law(self):
        p, xi = 0.6, 0.9
        assert O.burst_weight(p, xi, 0) == p
        assert O.burst_weight(p, xi, 3) == pytest.approx(0.4 * 0.6 * 0.81)
        # the first failure persists with probability xi: a geometric tail
        tail = sum(O.burst_weight(p, xi, m) for m in range(1, 2000))
        assert tail == pytest.approx((1 - p) * p / (1 - xi))

    def test_expected_delay_limits(self):
        assert O.expected_delay(1.0, 30, None) == 3.0
        assert O.expected_delay(0.5, 0, 0.9) == 3.0
        for xi in (None, 0.5, 0.9):
            e = O.expected_delay(0.6, 15, xi)
            assert 3.0 < e < 18.0

    def test_expected_delay_is_the_weighted_mean(self):
        p, F = 0.8, 4
        ws = [(1 - p) ** m * p for m in range(F + 1)]
        delays = [3, 5, 5, 7, 7]
        assert O.expected_delay(p, F, None) == pytest.approx(
            sum(w * d for w, d in zip(ws, delays)) / sum(ws)
        )

    def test_usage_anchor(self):
        # harsh environment (decay 0.0013/m) at 400 m, xi = 0.9, F = 15
        u = O.v2v_usage(math.exp(-0.0013 * 400.0), 15, 0.9)
        assert 0.945 <= u <= 0.955


class TestSearchScope:
    def test_route_sets(self):
        assert len(O.conflicting_pairs()) == 17
        assert len(O.conflicting_triples()) == 75

    def test_scope_counts(self):
        two, three = O.search_blocks()
        assert sum(b.size for b in two) == 67_796
        assert sum(b.size for b in three) == 52_926
        # sum of C(n, k): F=2 has 14 positions, F=3 has 16 (two cars)
        assert {b.F: b.size for b in two} == {
            2: sum(math.comb(14, k) for k in range(5)),
            3: sum(math.comb(16, k) for k in range(5)),
        }

    def test_block_size_matches_enumeration(self):
        _, three = O.search_blocks()
        block = three[0]
        listed = [
            c
            for k in range(block.max_losses + 1)
            for c in itertools.combinations(block.positions, k)
        ]
        assert len(listed) == block.size

    def test_unranking_follows_combinations_order(self):
        two, _ = O.search_blocks()
        block = two[0]
        listed = [
            c
            for k in range(block.max_losses + 1)
            for c in itertools.combinations(block.positions, k)
        ]
        assert [block.pattern(r) for r in range(block.size)] == listed
        with pytest.raises(IndexError):
            block.pattern(block.size)

    def test_stratified_sample(self):
        two, three = O.search_blocks()
        blocks = two + three
        total = sum(b.size for b in blocks)
        draws = O.stratified_sample(blocks, 1000, random.Random(5))
        assert len(draws) == len(set((id(b), r) for b, r in draws)) == 1000
        for b in blocks:
            k = sum(1 for d, _ in draws if d is b)
            assert abs(k - 1000 * b.size / total) < 1
        assert all(0 <= r < b.size for b, r in draws)
        assert draws == O.stratified_sample(blocks, 1000, random.Random(5))

    def test_window(self):
        two, _ = O.search_blocks()
        block = next(b for b in two if b.F == 3)
        slots = sorted({s for _, s in block.positions})
        assert slots[0] == 2 and slots[-1] == block.window_end == 3 + 6
        assert len(slots) == 3 + 5
