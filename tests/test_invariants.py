"""Cross-cutting invariants: message-set bounds, counter bounds, the
ordering between a yielder's and a proceeder's collision-area occupancy, the
agreement of the event log with the recorded rows, which cars the engine
steps and drives, the agreement of the two record modes and the one rule by
which a waiting car waits."""

import itertools
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import DIGESTS, _reference

import icsim.sim
from icsim.channel import CorrelatedBurst, DistanceIID, Scripted
from icsim.kinematics import (
    APPROACH_LANES,
    EXIT_LANES,
    IntersectionGeometry,
    Route,
    collision_area,
)
from icsim.protocol import Mode, simulate_enter_round
from icsim.scenarios import bundled_scenario, resolve_scenario
from icsim.sim import Scenario, ScenarioError, VehicleSpec, run_scenario

GEO = IntersectionGeometry(x_s=200.0, w=3.5)


@st.composite
def random_scenarios(draw):
    """2-4 cars on distinct approaches, 90-110 m out at 10-13 m/s with an
    erring position estimate, on a random or a scripted channel."""
    cars = draw(st.lists(
        st.tuples(
            st.sampled_from(range(4)),  # approach
            st.sampled_from(range(1, 4)),  # departure lane offset: never a U-turn
            st.floats(90.0, 110.0),  # distance to the center
            st.floats(10.0, 13.0),  # speed
            st.floats(-2.0, 5.0),  # error of the position estimate
        ),
        min_size=2,
        max_size=4,
        unique_by=lambda car: car[0],
    ))
    channel = draw(st.one_of(
        st.builds(DistanceIID, st.floats(0.0005, 0.01)),
        st.builds(CorrelatedBurst, st.floats(0.0005, 0.01), st.floats(0.1, 0.95)),
        st.builds(
            Scripted,
            st.frozensets(st.tuples(st.integers(1, 4), st.integers(1, 40)), max_size=8),
            st.frozensets(st.integers(1, 4), max_size=1),
        ),
    ))
    vehicles = tuple(
        VehicleSpec(
            uid=uid,
            route=Route(APPROACH_LANES[k], EXIT_LANES[(k + turn) % 4]),
            x=GEO.x_s - d,
            v=v,
            a=0.0,
            x_est=GEO.x_s - d + err,
        )
        for uid, (k, turn, d, v, err) in enumerate(cars, 1)
    )
    return Scenario(
        vehicles=vehicles,
        geometry=GEO,
        channel=channel,
        F=draw(st.sampled_from([2, 8, 30])),
        seed=draw(st.integers(0, 1000)),
    )


@settings(max_examples=200, deadline=None)
@given(
    cars=st.lists(
        st.tuples(
            st.sampled_from(range(4)),  # approach
            st.sampled_from(range(1, 4)),  # departure lane offset
            st.floats(0.0, GEO.x_col, exclude_max=True),  # position
            st.floats(0.0, 15.0),  # speed
            st.floats(-1.0, 1.0),  # desired acceleration
        ),
        min_size=1,
        max_size=4,
        unique_by=lambda car: car[0],
    ),
    resume_accel=st.floats(1e-300, 5.0),
    lam=st.floats(0.0005, 0.01),
)
def test_any_scenario_that_constructs_runs(cars, resume_accel, lam):
    try:
        scenario = Scenario(
            vehicles=tuple(
                VehicleSpec(uid, Route(APPROACH_LANES[k], EXIT_LANES[(k + turn) % 4]), x, v, a)
                for uid, (k, turn, x, v, a) in enumerate(cars, 1)
            ),
            geometry=GEO,
            channel=DistanceIID(lam),
            resume_accel=resume_accel,
        )
    except ScenarioError:
        return
    run_scenario(scenario, record=False)


class TestProtocolStateBounds:
    def test_counter_and_book_invariants_across_runs(self):
        for F in (2, 4):
            for lengths in itertools.product(range(4), repeat=2):
                losses = set()
                for uid, ln in zip((1, 2), lengths):
                    losses |= {(uid, s) for s in range(1, ln + 1)}
                res = simulate_enter_round(2, F=F, losses=losses)
                for st in res.final_states.values():
                    assert 0 <= st.f <= st.F + 1
                    holders = set(st.known_enters) | {st.uid}
                    assert st.known_acks <= holders

    def test_outbox_never_exceeds_one_of_each_type(self):
        for losses in (set(), {(2, 1)}, {(2, 1), (2, 2), (2, 3)}):
            res = simulate_enter_round(2, F=6, losses=losses)
            for entry in res.log:
                kinds = [m.split(":")[0] for m in entry["sent"]]
                assert kinds.count("ENTER") <= 1
                assert kinds.count("ACK") <= 1


class TestYieldOrdering:
    """A yielding vehicle must not touch its collision area until the
    prioritized vehicle's occupancy of that area has ended."""

    def _assert_ordering(self, trace):
        routes = {s.uid: s.route for s in trace.scenario.vehicles}
        summary = trace.summary["vehicles"]
        geo = trace.scenario.geometry
        col = collision_area(routes, geo)
        occupancy = {}
        for row in trace.rows:
            if row.occupancy:
                occupancy.setdefault(row.uid, []).append((row.slot, row.occupancy))
        for uid, stats in summary.items():
            uid = int(uid)
            if not stats["mainctrl_slots"]:
                continue
            shared = col[uid]
            if not shared:
                continue
            mine = [s for s, c in occupancy.get(uid, []) if c in shared]
            for other, other_stats in summary.items():
                other = int(other)
                if other == uid:
                    continue
                pair_shared = set(geo.occupancy(routes[uid])) & set(
                    geo.occupancy(routes[other])
                )
                if not pair_shared:
                    continue
                theirs = [
                    s for s, c in occupancy.get(other, []) if c in pair_shared
                ]
                mine_pair = [
                    s for s, c in occupancy.get(uid, []) if c in pair_shared
                ]
                if not theirs or not mine_pair:
                    continue
                # whichever entered first must have left before the other enters
                first, second = (
                    (theirs, mine_pair)
                    if min(theirs) <= min(mine_pair)
                    else (mine_pair, theirs)
                )
                assert max(first) < min(second), (uid, other)

    def test_three_car_scenario(self):
        self._assert_ordering(run_scenario(bundled_scenario("fig5a")))

    def test_two_car_with_losses(self):
        self._assert_ordering(run_scenario(bundled_scenario("fig5c")))

    def test_left_turn_geometry(self):
        scenario = Scenario(
            vehicles=(
                VehicleSpec(uid=1, route=Route("H1R", "H4L"), x=180.0, v=10.0, a=0.0),
                VehicleSpec(uid=2, route=Route("H3R", "H1L"), x=178.0, v=10.0, a=0.0),
            ),
            geometry=GEO,
            channel=Scripted(),
            F=3,
            max_slots=250,
        )
        trace = run_scenario(scenario)
        assert trace.summary["all_done"]
        self._assert_ordering(trace)


class TestEventLog:
    """The summary is folded from the event log; the rows are recorded
    beside it, so each event must be where the rows put it."""

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_events_agree_with_rows(self, name, tmp_path):
        trace = run_scenario(resolve_scenario(_reference(name, tmp_path)))
        assert [e[0] for e in trace.events] == sorted(e[0] for e in trace.events)
        for spec in trace.scenario.vehicles:
            rows = [r for r in trace.rows if r.uid == spec.uid]
            logged: dict[str, list[int]] = {}
            for slot, uid, event in trace.events:
                if uid == spec.uid:
                    logged.setdefault(event, []).append(slot)
            # a round's first ENTER follows a slot in which the car sent nothing
            first_enters = [
                r.slot
                for i, r in enumerate(rows)
                if "ENTER:" in r.sent and (i == 0 or not rows[i - 1].sent)
            ]
            mainctrl = [r.slot for r in rows if r.action == "InitiateMainCtrl"]
            fallbacks = [r.slot for r in rows if r.action == "SwitchToSD"]
            done = [r.slot for r in rows if r.mode == "DONE"][:1]
            assert logged.get("FIRST_ENTER", []) == first_enters
            assert logged.get("MAINCTRL", []) == mainctrl
            assert logged.get("SWITCH_SD", []) == fallbacks
            assert logged.get("EXITED", []) == done
            stats = trace.summary["vehicles"][str(spec.uid)]
            assert stats["first_enter_slot"] == (first_enters[0] if first_enters else None)
            assert stats["mainctrl_slots"] == mainctrl
            assert stats["fallback_slot"] == (fallbacks[-1] if fallbacks else None)
            assert stats["done_slot"] == (done[0] if done else None)
            assert stats["crossing_slots"] == sum(1 for r in rows if r.occupancy)


class TestSensing:
    """The engine senses only where a step reads the world: every snapshot
    it builds reaches at least one of the steps that read snapshots, a
    yielder gets one only when its wait ends, and delivery runs only in a
    slot in which some car sends."""

    READERS = ("sd_main_step", "exit_step", "competitors", "build_enter")

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_no_snapshot_goes_unread(self, name, tmp_path, monkeypatch):
        snapshot = icsim.sim.SensorSnapshot
        built, read = [], set()

        def build(*args):
            built.append(snapshot(*args))
            return built[-1]

        def reader(fn):
            def wrapped(*args):
                read.update(id(a) for a in args if isinstance(a, snapshot))
                return fn(*args)

            return wrapped

        monkeypatch.setattr(icsim.sim, "SensorSnapshot", build)
        for fn_name in self.READERS:
            monkeypatch.setattr(icsim.sim, fn_name, reader(getattr(icsim.sim, fn_name)))
        run_scenario(resolve_scenario(_reference(name, tmp_path)))
        assert built
        assert [s for s in built if id(s) not in read] == []

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_delivery_runs_exactly_in_the_slots_in_which_some_car_sends(
        self, name, tmp_path, monkeypatch
    ):
        exchange = icsim.sim._exchange
        exchanged = []

        def counted_exchange(*args):
            exchanged.append(args[4])  # the slot
            return exchange(*args)

        monkeypatch.setattr(icsim.sim, "_exchange", counted_exchange)
        trace = run_scenario(resolve_scenario(_reference(name, tmp_path)))
        assert exchanged == sorted({r.slot for r in trace.rows if r.sent})

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_a_yielder_is_given_a_snapshot_only_when_its_wait_ends(
        self, name, tmp_path, monkeypatch
    ):
        sense, snapshot = icsim.sim._sense, icsim.sim.SensorSnapshot
        slots, waiters = [], []

        def counted_sense(vehicles, *args):
            slots.append(vehicles)
            return sense(vehicles, *args)

        def build(*args):
            snap = snapshot(*args)
            if slots[-1][snap.est.uid].proto.mode is Mode.AWAIT_EXIT:
                waiters.append((len(slots), snap.est.uid))
            return snap

        monkeypatch.setattr(icsim.sim, "_sense", counted_sense)
        monkeypatch.setattr(icsim.sim, "SensorSnapshot", build)
        trace = run_scenario(resolve_scenario(_reference(name, tmp_path)))
        events = set(trace.events)
        for slot, uid in waiters:
            assert {(slot, uid, "REENTER"), (slot, uid, "CROSS_START")} & events
        assert {(s, u) for s, u, e in trace.events if e == "REENTER"} <= set(waiters)


def _outcome(trace) -> tuple:
    return trace.events, trace.summary, trace.violations, trace.slots_run


def _inert_slots(trace) -> dict[int, int]:
    """From a recorded run, the slot in which each car became inert: DONE,
    past its path and off every cell."""
    geo = trace.scenario.geometry
    exits = {s.uid: geo.path_exit(s.route) for s in trace.scenario.vehicles}
    inert = {}
    for r in trace.rows:
        if r.mode == "DONE" and not r.occupancy and r.x >= exits[r.uid]:
            inert.setdefault(r.uid, r.slot)
    return inert


class TestStepping:
    """A car runs its protocol step only in a slot that can change it, and
    the slot loop stops driving a car once nothing can read it, whether the
    run records rows or not; neither changes what a run gives."""

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    @pytest.mark.parametrize("record", [True, False])
    def test_protocol_step_only_where_it_can_change_the_car(
        self, name, record, tmp_path, monkeypatch
    ):
        step, sense, held = icsim.sim._protocol_phase, icsim.sim._sense, icsim.sim._held
        stepped, held_now, held_stopped, given = [], set(), [], {}

        def counted_sense(*args):
            held_now.clear()
            out = sense(*args)
            given.clear()
            given.update(out)
            return out

        def counted_held(veh, *args):
            if held(veh, *args):
                held_now.add(veh.uid)
                if veh.proto.mode is Mode.SD_FALLBACK:
                    held_stopped.append(veh.uid)
                return True
            return False

        def checked_step(veh, snap, *args):
            mode = veh.proto.mode
            assert mode not in (Mode.CROSSING, Mode.DONE) and not veh.fallback_go
            # a waiting car that _held holds, a stopped fallback car among
            # them, keeps its control
            assert veh.uid not in held_now, (mode, veh.uid)
            # in an ENTER round, or given what its step reads: a snapshot, or
            # the mark of a fallback car in the box or whose turn has come
            assert mode is Mode.V2V_ENTER or (
                veh.uid in given and (snap is not None or mode is Mode.SD_FALLBACK)
            ), (mode, veh.uid)
            stepped.append(mode)
            return step(veh, snap, *args)

        monkeypatch.setattr(icsim.sim, "_protocol_phase", checked_step)
        monkeypatch.setattr(icsim.sim, "_sense", counted_sense)
        monkeypatch.setattr(icsim.sim, "_held", counted_held)
        run_scenario(resolve_scenario(_reference(name, tmp_path)), record=record)
        assert Mode.V2V_ENTER in stepped
        if name == "allloss":
            # both cars stop at their lines; the later one waits on the earlier
            assert held_stopped

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_an_inert_car_is_not_driven_without_rows(self, name, tmp_path, monkeypatch):
        scenario = resolve_scenario(_reference(name, tmp_path))
        full = run_scenario(scenario)
        inert = _inert_slots(full)
        integrate = icsim.sim._integrate
        last = {}

        def counted_integrate(veh, a, T, slot):
            last[veh.uid] = slot
            return integrate(veh, a, T, slot)

        monkeypatch.setattr(icsim.sim, "_integrate", counted_integrate)
        bare = run_scenario(scenario, record=False)
        assert _outcome(bare) == _outcome(full)
        assert last == {s.uid: inert.get(s.uid, full.slots_run) for s in scenario.vehicles}

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    @pytest.mark.parametrize("record", [True, False])
    def test_the_slot_loop_drops_an_inert_car_in_both_record_modes(
        self, name, record, tmp_path, monkeypatch
    ):
        scenario = resolve_scenario(_reference(name, tmp_path))
        inert = _inert_slots(run_scenario(scenario))
        sense = icsim.sim._sense
        driven = []

        def counted_sense(vehicles, *args):
            driven.append(set(vehicles))
            return sense(vehicles, *args)

        monkeypatch.setattr(icsim.sim, "_sense", counted_sense)
        run_scenario(scenario, record=record)
        for slot, uids in enumerate(driven, 1):
            assert uids == {
                s.uid for s in scenario.vehicles if inert.get(s.uid, slot) >= slot
            }, slot

    @settings(max_examples=100, deadline=None)
    @given(scenario=random_scenarios())
    def test_record_modes_agree_on_random_inputs(self, scenario):
        bare = run_scenario(scenario, record=False)
        assert _outcome(bare) == _outcome(run_scenario(scenario))


def _full(trace) -> tuple:
    return trace.rows, trace.events, trace.violations, trace.summary, trace.slots_run


def _nothing_holds(*args) -> bool:
    return False


def still_waiting(uid: int, verdict_proceed: frozenset[int], seen) -> bool:
    """The wait of yielder ``uid`` over the sensed records ``seen``: whether
    one is another car the verdict lets proceed that has not exited. A
    proceeding car that is not sensed counts as gone; one sitting still with
    its signal off has abandoned the crossing (sensor fallback)."""
    for o_uid, _, _, _, _, light, exited, stopped in seen:
        if o_uid in verdict_proceed and o_uid != uid and not exited and (stopped is None or light):
            return True
    return False


def _my_turn(me, seen) -> bool:
    """Four-way-stop etiquette over the sensed records ``seen``: a fallback
    car stopped at its line goes only when nobody signals, nobody is in the
    box, and no earlier-stopped car still waits at its line."""
    mine = (me.stopped_since if me.stopped_since is not None else 1 << 30, me.uid)
    for o_uid, _, x, _, _, light, exited, stopped_since in seen:
        if exited:
            continue
        if light or x >= me.x_col:
            return False
        if stopped_since is not None and (stopped_since, o_uid) < mine:
            return False
    return True


def _waits(me, vehicles, scenario) -> bool:
    """The reference wait rule, over the records ``_sense`` builds: those of
    the snapshot it gives a yielder that nothing holds, which are what any
    car in ``me``'s place senses. A yielder waits by ``still_waiting``, a
    fallback car until its turn comes by ``_my_turn``."""
    mode = me.proto.mode
    me.proto.mode = Mode.AWAIT_EXIT
    try:
        with mock.patch.object(icsim.sim, "_held", _nothing_holds):
            seen = icsim.sim._sense(vehicles, scenario, {})[me.uid].others
    finally:
        me.proto.mode = mode
    if mode is Mode.AWAIT_EXIT:
        return still_waiting(me.uid, me.proceed_uids, seen)
    return not _my_turn(me, seen)


def _under_the_reference(scenario):
    """A stand-in for ``_held`` that decides every wait by ``_waits``."""
    return lambda me, vehicles, *_: _waits(me, vehicles, scenario)


def _edge(me, o, radius) -> list[float]:
    """The distances short of the centre at which ``o``, on its approach, is
    ``radius`` from ``me``: the roots r >= 0 of |p - r u| = radius, where p
    is ``me``'s 2-D position and r u is ``o``'s."""
    px, py = icsim.sim._position_2d(me, GEO.x_s)
    ux, uy = -o.heading_in[0], -o.heading_in[1]
    b = px * ux + py * uy
    disc = b * b - (px * px + py * py) + radius * radius
    if disc < 0:
        return []
    return [r for r in (b - math.sqrt(disc), b + math.sqrt(disc)) if r >= 0]


MODES = tuple(v for k, v in vars(Mode).items() if not k.startswith("_"))


@st.composite
def waiting_cars(draw):
    """A yielder or a fallback car stopped short of its line, among one to
    three other cars in any state; about half of the others sit on their
    approach exactly at, or one ulp either side of, the edge of the
    waiter's sensing range."""
    radius = draw(st.sampled_from([150.0, 40.0, 7.0, 0.0]))
    approaches = draw(st.permutations(range(4)))[: draw(st.integers(2, 4))]
    specs = tuple(
        VehicleSpec(
            uid=uid,
            route=Route(APPROACH_LANES[k], EXIT_LANES[(k + draw(st.integers(1, 3))) % 4]),
            x=0.0,
            v=10.0,
            a=0.0,
        )
        for uid, k in enumerate(approaches, 1)
    )
    scenario = Scenario(vehicles=specs, geometry=GEO, sensing_radius=radius)
    cars = [icsim.sim._Vehicle(spec, 8, GEO) for spec in specs]
    me, others = cars[0], cars[1:]
    me.x = me.x_est = draw(st.floats(GEO.x_s - 120.0, GEO.x_col, exclude_max=True))
    me.v = 0.0
    me.stopped_since = draw(st.one_of(st.none(), st.integers(1, 40)))
    if draw(st.booleans()):
        me.proto.mode = Mode.AWAIT_EXIT
        me.proceed_uids = frozenset(draw(st.sets(st.integers(1, 6))))
        me.v = draw(st.sampled_from([0.0, 3.0]))
    else:
        me.proto.mode = Mode.SD_FALLBACK
    for o in others:
        o.proto.mode = draw(st.sampled_from(MODES))
        edge = _edge(me, o, radius)
        if edge and draw(st.booleans()):
            r = draw(st.sampled_from(edge))
            r = draw(st.sampled_from([r, math.nextafter(r, 0), math.nextafter(r, math.inf)]))
            o.x = GEO.x_s - r
        else:
            o.x = GEO.x_s + draw(st.floats(-160.0, 40.0))
        o.x_est = o.x
        o.v = draw(st.sampled_from([0.0, 0.0, 10.0]))
        o.stopped_since = draw(st.one_of(st.none(), st.integers(1, 40)))
        o.fallback_go = draw(st.booleans())
        o.triggered = True
    return scenario, me, {veh.uid: veh for veh in cars}


class TestWaitRule:
    """A waiting car waits exactly while the reference rule over what it
    senses says it waits, and deciding waits by that rule instead changes
    nothing a run gives."""

    @settings(max_examples=400, deadline=None)
    @given(state=waiting_cars())
    def test_held_is_the_full_rule(self, state):
        scenario, me, vehicles = state
        held = icsim.sim._held(me, vehicles, {}, GEO.x_s, scenario.sensing_radius**2)
        assert held is _waits(me, vehicles, scenario)

    @pytest.mark.parametrize("beyond", [False, True])
    def test_the_sensing_range_edge(self, beyond):
        # a yielder 75 m short of the centre waits on a car crossing from the
        # opposite approach, exactly the sensing radius away or one ulp beyond
        scenario = Scenario(
            vehicles=(
                VehicleSpec(uid=1, route=Route("H1R", "H3L"), x=125.0, v=0.0, a=1.0),
                VehicleSpec(uid=2, route=Route("H3R", "H1L"), x=125.0, v=10.0, a=0.0),
            ),
            geometry=GEO,
        )
        me, other = (icsim.sim._Vehicle(spec, 8, GEO) for spec in scenario.vehicles)
        me.proto.mode, me.proceed_uids = Mode.AWAIT_EXIT, frozenset({2})
        other.proto.mode = Mode.CROSSING
        radius = scenario.sensing_radius
        distance = math.nextafter(radius, math.inf) if beyond else radius
        other.x = GEO.x_s - (distance - (GEO.x_s - me.x))
        gap = math.dist(icsim.sim._position_2d(me, GEO.x_s), icsim.sim._position_2d(other, GEO.x_s))
        assert gap == distance
        held = icsim.sim._held(me, {1: me, 2: other}, {}, GEO.x_s, radius**2)
        assert held is not beyond
        assert _waits(me, {1: me, 2: other}, scenario) is not beyond

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    @pytest.mark.parametrize("record", [True, False])
    def test_runs_unchanged_under_the_reference_rule(self, name, record, tmp_path, monkeypatch):
        scenario = resolve_scenario(_reference(name, tmp_path))
        engine = run_scenario(scenario, record=record)
        monkeypatch.setattr(icsim.sim, "_held", _under_the_reference(scenario))
        assert _full(run_scenario(scenario, record=record)) == _full(engine)

    @settings(max_examples=100, deadline=None)
    @given(scenario=random_scenarios())
    def test_random_runs_unchanged_under_the_reference_rule(self, scenario):
        engine = run_scenario(scenario)
        with mock.patch.object(icsim.sim, "_held", _under_the_reference(scenario)):
            reference = run_scenario(scenario)
        assert _full(reference) == _full(engine)
