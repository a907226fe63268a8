"""Command-line interface tests: exit codes, output files, reproducibility."""

import copy
import csv
import json
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icsim.cli import EXIT_CONFIG, EXIT_LIVENESS, EXIT_OK, build_parser, main
from icsim.scenarios import bundled_scenario, resolve_scenario, save_scenario, scenario_to_dict
from icsim.sim import run_scenario, write_summary_json, write_trace_csv


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_bundled_fig5a_reports_first_round(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", "fig5a", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "mainctrl=[4" in out
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["vehicles"]["1"]["mainctrl_slots"][0] == 4
        assert (tmp_path / "trace.csv").exists()

    def test_bundled_fig5c_delay(self, tmp_path):
        rc = main(["simulate", "--scenario", "fig5c", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["vehicles"]["2"]["enter_delay"] == 7

    def test_malformed_scenario_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_missing_scenario_is_config_error(self, tmp_path):
        rc = main(
            ["simulate", "--scenario", "nonexistent", "--out", str(tmp_path / "o")]
        )
        assert rc == EXIT_CONFIG

    def test_blackout_still_exits_zero(self, tmp_path):
        rc = main(["simulate", "--scenario", "allloss", "--out", str(tmp_path)])
        assert rc == EXIT_OK

    def test_overrides_do_not_carry_over_to_the_next_call(self, tmp_path):
        # one parser serves every call in a process; the second call must run
        # with the scenario's own seed and F
        data = scenario_to_dict(bundled_scenario("fig5c"))
        data["channel"] = {"type": "distance_iid", "lambda": 0.02}
        path = tmp_path / "iid.json"
        path.write_text(json.dumps(data))
        scenario = resolve_scenario(str(path))
        traces = []
        for i, extra in enumerate((["--seed", "5", "--F", "3"], [])):
            main(["simulate", "--scenario", str(path), "--out", str(tmp_path / str(i)), *extra])
            traces.append((tmp_path / str(i) / "trace.csv").read_text())
        for i, sc in enumerate((scenario, replace(scenario, seed=5), replace(scenario, F=3))):
            write_trace_csv(run_scenario(sc), tmp_path / f"ref{i}.csv")
        own, seeded, lowered = ((tmp_path / f"ref{i}.csv").read_text() for i in range(3))
        assert own != seeded and own != lowered  # both overrides show in the trace
        assert traces[1] == own != traces[0]
        assert build_parser() is build_parser()

    def test_trace_roundtrip(self, tmp_path):
        main(["simulate", "--scenario", "fig5b", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "trace.csv")
        assert rows, "trace must not be empty"
        sent = [r["sent"] for r in rows if r["sent"]]
        assert any(s.startswith("ENTER:") for s in sent)
        # the wire format: ENTER:uid:clane:nlane:tau or ACK:uid
        wire = re.compile(r"ENTER:\d+:H[1-4]R:H[1-4]L:[0-9.e+-]+|ACK:\d+")
        for s in sent:
            for rec in s.split(";"):
                assert wire.fullmatch(rec), rec

    def test_reproducible_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--scenario", "fig5d", "--out", str(a)])
        main(["simulate", "--scenario", "fig5d", "--out", str(b)])
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def _parent(data, path):
    """The container that holds the entry at ``path`` of a nested dict."""
    for key in path[:-1]:
        data = data[key]
    return data


def fig5b(path=None, value=None, channel=None):
    """The bundled fig5b scenario as a dict, with the value at ``path`` set."""
    data = scenario_to_dict(bundled_scenario("fig5b"))
    if channel is not None:
        data["channel"] = channel
    if path is not None:
        _parent(data, path)[path[-1]] = value
    return data


def run_simulate(data, out, *flags) -> int:
    path = out / "in.scenario.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data))
    return main(["simulate", "--scenario", str(path), "--out", str(out / "o"), *flags])


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    return err


class TestMalformedScenario:
    @pytest.mark.parametrize(
        "path,value",
        [
            (("T",), 0),
            (("T",), -0.1),
            (("R",), 0),
            (("F",), -1),
            (("seed",), -1),
            (("params", "epsilon"), 0),
            (("params", "epsilon"), 1),
            (("params", "tau_th"), 0),
            (("params", "sigma_x"), -1),
            (("params",), [1]),
            (("channel",), [1]),
            (("geometry",), [1]),
            (("geometry", "w"), 0),
            (("vehicles", 0, "x"), -math.inf),
            (("vehicles", 0, "x"), math.nan),
            (("vehicles", 0, "v"), math.nan),
            (("vehicles", 0, "dx_bound"), -1),
            # a car stopped at the line could never leave it again
            (("params", "resume_accel"), 0),
            # a car at rest that does not accelerate never moves
            (("vehicles", 0, "v"), 0),
            # subnormal speeds: the trigger's look-ahead R / (v*T) overflows
            (("vehicles", 1, "v"), 1e-320),
            (("vehicles", 1, "v"), 5e-324),
            (("F",), 1e400),
            # the squared speed at the center, v*v + 2*a*dx, overflows: the
            # car would announce an unreachable arrival time
            (("vehicles", 0, "a"), 1e306),
            (("vehicles", 0, "v"), 1e308),
            # a step of more than a cell width per slot could skip a cell
            (("vehicles", 0, "v"), 100.0),
            (("vehicles", 0, "v"), 36.0),
            # the integer fields take only integral numbers, named in the error
            (("F",), 2.7),
            (("F",), True),
            (("F",), "3"),
            (("max_slots",), 10.5),
            (("seed",), 0.5),
            (("seed",), False),
            (("vehicles", 1, "uid"), 1.9),
            (("vehicles", 0, "uid"), "1"),
        ],
        ids=repr,
    )
    def test_exits_1_with_one_line(self, path, value, tmp_path, capsys):
        assert run_simulate(fig5b(path, value), tmp_path) == EXIT_CONFIG
        err = assert_one_line_error(capsys)
        if path[-1] in ("F", "max_slots", "seed", "uid"):
            assert f"{path[-1]} must be" in err

    @pytest.mark.parametrize(
        "path,value,error",
        [
            # a number field takes only a JSON number: not a bool, not a string
            (("vehicles", 0, "v"), True, "v must be a number"),
            (("vehicles", 0, "x"), "62", "x must be a number"),
            (("vehicles", 0, "a"), False, "a must be a number"),
            (("vehicles", 1, "dx_bound"), True, "dx_bound must be a number"),
            (("vehicles", 1, "x_est"), "60.0", "x_est must be a number"),
            (("T",), "0.1", "T must be a number"),
            (("R",), True, "R must be a number"),
            (("geometry", "x_s"), "200", "x_s must be a number"),
            (("geometry", "w"), True, "w must be a number"),
            (("params", "tau_th"), "2", "tau_th must be a number"),
            (("params", "sensing_radius"), False, "sensing_radius must be a number"),
            (("channel",), {"type": "distance_iid", "lambda": True}, "lambda must be a number"),
            (("channel",), {"type": "correlated", "lambda": 0.001, "xi": "0.5"},
             "xi must be a number"),
            # a scripted loss names a receiver and a slot by integers
            (("channel", "losses"), [["2", True]], "losses must be an integer"),
            (("channel", "losses"), [[2, 1.5]], "losses must be an integer"),
            (("channel", "all_lost"), [True], "all_lost must be an integer"),
        ],
        ids=repr,
    )
    def test_number_fields_take_only_json_numbers(self, path, value, error, tmp_path, capsys):
        assert run_simulate(fig5b(path, value), tmp_path) == EXIT_CONFIG
        assert assert_one_line_error(capsys) == f"error: {error}\n"

    @pytest.mark.parametrize(
        "path,value,error",
        [
            # an object of cars would load as an empty scenario and exit 0
            (("vehicles",), {}, "vehicles must be a JSON array"),
            (("vehicles",), {"1": {"clane": "H1R"}}, "vehicles must be a JSON array"),
            (("vehicles",), "H1R", "vehicles must be a JSON array"),
            (("vehicles",), None, "vehicles must be a JSON array"),
            # a car that is not an object used to fail on indexing it by a field
            (("vehicles", 0), [1, 2], "vehicles[0] must be a JSON object"),
            (("vehicles", 1), 7, "vehicles[1] must be a JSON object"),
            (("vehicles", 1), None, "vehicles[1] must be a JSON object"),
        ],
        ids=repr,
    )
    def test_vehicles_must_be_an_array_of_objects(self, path, value, error, tmp_path, capsys):
        assert run_simulate(fig5b(path, value), tmp_path) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()
        assert assert_one_line_error(capsys) == f"error: {error}\n"

    @pytest.mark.parametrize(
        "path,key",
        [
            ((), "sensing_radius"),
            (("geometry",), "ws"),
            (("params",), "sensing_raduis"),
            (("vehicles", 1), "dx_bnd"),
            (("channel",), "xi"),  # fig5b's channel is scripted
        ],
        ids=repr,
    )
    def test_unknown_field(self, path, key, tmp_path, capsys):
        data = fig5b()
        _parent(data, path + (key,))[key] = 40
        assert run_simulate(data, tmp_path) == EXIT_CONFIG
        assert assert_one_line_error(capsys) == f"error: unknown field {key}\n"

    @pytest.mark.parametrize(
        "path,channel,error",
        [
            (("vehicles",), None, "missing field vehicles at the top level"),
            (("vehicles", 0, "clane"), None, "missing field clane in vehicles[0]"),
            (("vehicles", 1, "nlane"), None, "missing field nlane in vehicles[1]"),
            (("vehicles", 1, "x"), None, "missing field x in vehicles[1]"),
            (("vehicles", 0, "uid"), None, "missing field uid in vehicles[0]"),
            (("vehicles", 0, "v"), None, "missing field v in vehicles[0]"),
            (("channel", "lambda"), {"type": "distance_iid", "lambda": 0.0013},
             "missing field lambda in channel"),
            (("channel", "xi"), {"type": "correlated", "lambda": 0.0013, "xi": 0.5},
             "missing field xi in channel"),
        ],
        ids=repr,
    )
    def test_missing_field(self, path, channel, error, tmp_path, capsys):
        data = fig5b(channel=channel)
        del _parent(data, path)[path[-1]]
        assert run_simulate(data, tmp_path) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()
        assert assert_one_line_error(capsys) == f"error: {error}\n"

    @pytest.mark.parametrize("path,key", [((), "F"), (("geometry",), "w"), (("vehicles", 1), "x")])
    def test_duplicate_key(self, path, key, tmp_path, capsys):
        data = fig5b()
        obj = _parent(data, path + (key,))
        obj["repeat"] = 0
        text = json.dumps(data).replace('"repeat": 0', f'"{key}": {obj[key] + 1}')
        file = tmp_path / "in.scenario.json"
        file.write_text(text)
        rc = main(["simulate", "--scenario", str(file), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert assert_one_line_error(capsys) == f"error: duplicate key {key}\n"

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{}", b"[" * 100_000], ids=["utf-16 mark", "deep nesting"]
    )
    def test_unreadable_file(self, content, tmp_path, capsys):
        path = tmp_path / "in.scenario.json"
        path.write_bytes(content)
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "changes,error",
        [
            ({("vehicles", 0, "v"): -1}, "vehicle 1 has negative initial speed"),
            (
                {("channel",): {"type": "correlated", "lambda": 0.001, "xi": 1.0}},
                "invalid scenario: xi must be in [0, 1)",
            ),
            ({("vehicles", 0, "nlane"): "H1L"}, "invalid scenario: route H1R->H1L is a U-turn"),
            # R / (v*T) overflows: the trigger's look-ahead is not finite
            (
                {("R",): 1e300, ("vehicles", 0, "v"): 1e-11},
                "vehicle 1 is too slow: R / (v*T) is not finite",
            ),
        ],
        ids=["negative v", "xi 1", "U-turn", "too slow"],
    )
    def test_a_scenario_the_engine_cannot_run(self, changes, error, tmp_path, capsys):
        data = fig5b()
        for path, value in changes.items():
            _parent(data, path)[path[-1]] = value
        assert run_simulate(data, tmp_path) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()
        assert assert_one_line_error(capsys) == f"error: {error}\n"

    @pytest.mark.parametrize("kind", ["directory", "JSON array"])
    def test_a_scenario_path_that_holds_no_json_object(self, kind, tmp_path, capsys):
        path = tmp_path / "in.scenario.json"
        if kind == "directory":
            path.mkdir()
            error = "error: cannot read scenario file: "
        else:
            path.write_text("[1, 2]")
            error = "error: scenario file must contain a JSON object"
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "o").exists()
        assert assert_one_line_error(capsys).startswith(error)

    def test_negative_seed_flag_on_a_random_channel(self, tmp_path, capsys):
        data = fig5b(channel={"type": "distance_iid", "lambda": 0.001})
        assert run_simulate(data, tmp_path, "--seed", "-1") == EXIT_CONFIG
        assert_one_line_error(capsys)


# Replacement values for one entry of a scenario dict: out-of-range and
# non-finite numbers, wrong types, and ordinary values.
ODD_VALUES = st.one_of(
    st.sampled_from(
        [0, -1, -0.1, 1e-9, 0.5, 1, 1000, math.nan, math.inf, -math.inf,
         None, "x", [], [1], {}, True]
    ),
    st.floats(-1e4, 1e4),
    st.integers(-10, 1000),
)
DELETE = object()


def _paths(data, prefix=()):
    for key, value in data.items() if isinstance(data, dict) else enumerate(data):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@st.composite
def mutated_scenarios(draw):
    """fig5b on a scripted or a correlated channel, with one to three
    entries replaced or deleted."""
    channel = draw(st.sampled_from([None, {"type": "correlated", "lambda": 0.002, "xi": 0.7}]))
    data = fig5b(channel=channel)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(data))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        value = draw(st.one_of(st.just(DELETE), ODD_VALUES))
        if value is DELETE:
            del _parent(data, path)[path[-1]]
        else:
            _parent(data, path)[path[-1]] = copy.deepcopy(value)
    return data


@settings(max_examples=150, deadline=None)
@given(mutated_scenarios())
# a subnormal cell width: every position past the line is past the path
@example(fig5b(("geometry",), {"x_s": 200.0, "w": 5e-324}))
def test_any_mutated_scenario_gives_an_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        assert run_simulate(data, Path(tmp)) in (0, 1, 2, 3)


def _fit_pdr(out):
    samples = out.parent / "samples.csv"
    samples.write_text("distance_m,pdr\n" + "".join(f"{d},{0.99 ** d!r}\n" for d in (50, 150, 300)))
    return main(["fit-pdr", "--input", str(samples), "--out", str(out)])


# each file icsim writes: the call that writes it into a directory
WRITERS = {
    "trace.csv": lambda out: write_trace_csv(run_scenario(bundled_scenario("fig5a")), out / "trace.csv"),
    "summary.json": lambda out: write_summary_json(
        run_scenario(bundled_scenario("fig5a")), out / "summary.json"
    ),
    "fig5a.scenario.json": lambda out: save_scenario(
        bundled_scenario("fig5a"), out / "fig5a.scenario.json"
    ),
    "delay_curve.csv": lambda out: main(["sweep-delay", "--out", str(out), "--d-max", "100"]),
    "v2v_probability.csv": lambda out: main(["v2v-prob", "--out", str(out), "--F", "4"]),
    "pdr_residuals.csv": _fit_pdr,
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_a_rewrite_over_an_old_file_leaves_none_of_it(name, tmp_path, capsys):
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    fresh.mkdir()
    old.mkdir()
    WRITERS[name](fresh)
    expected = (fresh / name).read_bytes()
    for junk in (b"#" * (2 * len(expected) + 100), b"#" * (len(expected) // 2)):
        (old / name).write_bytes(junk)
        WRITERS[name](old)
        assert (old / name).read_bytes() == expected


class TestSweepDelay:
    def test_curve_orderings(self, tmp_path):
        rc = main(
            [
                "sweep-delay",
                "--out",
                str(tmp_path),
                "--d-min",
                "0",
                "--d-max",
                "500",
                "--d-step",
                "50",
                "--xi",
                "iid,0.5,0.9",
            ]
        )
        assert rc == EXIT_OK
        rows = read_csv(tmp_path / "delay_curve.csv")
        by_curve = {}
        for r in rows:
            by_curve.setdefault((r["environment"], r["xi"]), []).append(
                (float(r["distance_m"]), float(r["expected_delay_slots"]))
            )
        for (env, xi), pts in by_curve.items():
            pts.sort()
            values = [v for _, v in pts]
            assert values == sorted(values), (env, xi)
            assert values[0] == pytest.approx(3.0), "zero distance floor"
        # harsh is never faster than open-field at the same (xi, d)
        for xi in ("iid", "0.5", "0.9"):
            open_c = dict(by_curve[("open-field", xi)])
            harsh_c = dict(by_curve[("harsh", xi)])
            for d, v in open_c.items():
                assert v <= harsh_c[d] + 1e-12
        # stronger correlation is never faster
        for env in ("open-field", "harsh"):
            lo = dict(by_curve[(env, "0.5")])
            hi = dict(by_curve[(env, "0.9")])
            for d in lo:
                if d > 0:
                    assert hi[d] >= lo[d]

    @pytest.mark.parametrize(
        "flags",
        [["--xi", "1.5"], ["--F", "-1"], ["--d-min", "-50"], ["--trials", "-3"],
         ["--d-max", "inf"], ["--seed", "-1", "--trials", "5"],
         ["--d-min", "1e17", "--d-max", "2e17", "--d-step", "1"]],
        ids=" ".join,
    )
    def test_bad_argument_writes_nothing(self, flags, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["sweep-delay", "--out", str(out), *flags]) == EXIT_CONFIG
        assert not out.exists()
        assert_one_line_error(capsys)

    def test_bad_range_is_config_error(self, tmp_path):
        rc = main(
            ["sweep-delay", "--out", str(tmp_path), "--d-min", "10", "--d-max", "5"]
        )
        assert rc == EXIT_CONFIG


@pytest.mark.parametrize(
    "command", [["sweep-delay", "--d-max", "1000000", "--d-step", "500000"], ["v2v-prob", "--d", "1000000"]]
)
def test_zero_delivery_ratio_is_refused_before_writing(command, tmp_path, capsys):
    out = tmp_path / "o"
    assert main([*command, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert "1000000.0 m" in assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "command",
    [["simulate", "--scenario", "fig5b"], ["sweep-delay"], ["v2v-prob"], ["fit-pdr", "--input"]],
    ids=lambda c: c[0],
)
def test_an_out_that_is_a_file_is_a_config_error(command, tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text("distance_m,pdr\n100,0.9\n200,0.8\n")
    if command[-1] == "--input":
        command = [*command, str(samples)]
    assert main([*command, "--out", str(samples)]) == EXIT_CONFIG
    assert "cannot use --out" in assert_one_line_error(capsys)
    assert samples.read_text() == "distance_m,pdr\n100,0.9\n200,0.8\n"


@pytest.mark.parametrize(
    "command,name",
    [
        (["simulate", "--scenario", "fig5b"], "summary.json"),
        (["sweep-delay"], "delay_curve.csv"),
        (["v2v-prob"], "v2v_probability.csv"),
        (["fit-pdr", "--input"], "pdr_residuals.csv"),
    ],
    ids=lambda c: c[0] if isinstance(c, list) else c,
)
def test_a_directory_at_an_output_name_is_a_config_error(command, name, tmp_path, capsys, monkeypatch):
    samples = tmp_path / "samples.csv"
    samples.write_text("distance_m,pdr\n100,0.9\n200,0.8\n")
    if command[-1] == "--input":
        command = [*command, str(samples)]
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    # simulate refuses its outputs before it runs the scenario
    monkeypatch.setattr("icsim.cli.run_scenario", None)
    assert main([*command, "--out", str(out)]) == EXIT_CONFIG
    assert f"cannot write {out / name}: Is a directory" in assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "name,changes",
    [
        # a car at rest whose first slot leaves it at or below the rest speed
        ("fig5b", {("vehicles", 0, "v"): 0, ("vehicles", 0, "a"): 1e-12}),
        ("fig5b", {("vehicles", 0, "v"): 1e-13, ("vehicles", 0, "a"): 0}),
        # a car stopped at its line would regain no more than the rest speed
        ("allloss", {("params", "resume_accel"): 1e-12}),
        ("allloss", {("vehicles", 0, "a"): 1e-12}),
    ],
    ids=repr,
)
def test_a_car_that_can_never_move_is_refused(name, changes, tmp_path, capsys):
    data = scenario_to_dict(bundled_scenario(name))
    for path, value in changes.items():
        _parent(data, path)[path[-1]] = value
    assert run_simulate(data, tmp_path) == EXIT_CONFIG
    assert_one_line_error(capsys)


def test_a_car_that_moves_too_slowly_is_a_liveness_failure(tmp_path, capsys):
    data = scenario_to_dict(bundled_scenario("allloss"))
    data["params"]["resume_accel"] = 1e-10  # moves, but not within max_slots
    assert run_simulate(data, tmp_path) == EXIT_LIVENESS
    assert "liveness failure" in capsys.readouterr().err


class TestV2VProb:
    def test_anchor_and_shape(self, tmp_path):
        rc = main(
            ["v2v-prob", "--out", str(tmp_path), "--F", "20", "--xi", "iid,0.9"]
        )
        assert rc == EXIT_OK
        rows = read_csv(tmp_path / "v2v_probability.csv")
        anchor = [
            r
            for r in rows
            if r["environment"] == "harsh"
            and float(r["distance_m"]) == 400.0
            and r["xi"] == "0.9"
            and int(r["F"]) == 15
        ]
        assert len(anchor) == 1
        assert float(anchor[0]["p_v2v"]) == pytest.approx(0.9504, abs=5e-3)
        # nondecreasing in F along every curve
        curves = {}
        for r in rows:
            curves.setdefault((r["environment"], r["distance_m"], r["xi"]), []).append(
                (int(r["F"]), float(r["p_v2v"]))
            )
        for pts in curves.values():
            pts.sort()
            vals = [v for _, v in pts]
            assert vals == sorted(vals)


    @pytest.mark.parametrize(
        "flags",
        # an empty list would give a header-only CSV
        [["--xi", "1.5"], ["--d", "-5"], ["--d", "200,nan"], ["--d", ","], ["--d", ""], ["--xi", " , "]],
        ids=" ".join,
    )
    def test_bad_argument_writes_nothing(self, flags, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["v2v-prob", "--out", str(out), *flags]) == EXIT_CONFIG
        assert not out.exists()
        assert_one_line_error(capsys)


class TestFitPdr:
    def write_samples(self, path, lam, noise=0.0):
        import numpy as np

        rng = np.random.default_rng(5)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["distance_m", "pdr"])
            for d in range(25, 525, 25):
                eps = rng.normal(0, noise) if noise else 0.0
                w.writerow([d, math.exp(-lam * d + eps)])

    def test_exact_recovery(self, tmp_path):
        src = tmp_path / "samples.csv"
        self.write_samples(src, 0.0013)
        rc = main(["fit-pdr", "--input", str(src), "--out", str(tmp_path)])
        assert rc == EXIT_OK
        residuals = read_csv(tmp_path / "pdr_residuals.csv")
        assert all(abs(float(r["residual"])) < 1e-9 for r in residuals)

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        src = tmp_path / "samples.csv"
        self.write_samples(src, 0.0013, noise=0.05)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
        rates = []
        for path in (src, bom):
            assert main(["fit-pdr", "--input", str(path), "--out", str(tmp_path / path.stem)]) == EXIT_OK
            rates.append(capsys.readouterr().out.splitlines()[0])
        assert rates[0] == rates[1] and rates[0].startswith("lambda = ")

    def test_zero_pdr_row_is_config_error(self, tmp_path):
        src = tmp_path / "samples.csv"
        with open(src, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["distance_m", "pdr"])
            w.writerow([100, 0.9])
            w.writerow([200, 0.0])
        rc = main(["fit-pdr", "--input", str(src), "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG

    def test_missing_header_is_config_error(self, tmp_path):
        src = tmp_path / "samples.csv"
        src.write_text("a,b\n1,2\n")
        rc = main(["fit-pdr", "--input", str(src), "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("distance", ["nan", "inf", "-100"])
    def test_bad_distance_writes_nothing(self, distance, tmp_path, capsys):
        src = tmp_path / "samples.csv"
        src.write_text(f"distance_m,pdr\n100,0.9\n{distance},0.5\n")
        out = tmp_path / "o"
        rc = main(["fit-pdr", "--input", str(src), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()
        assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "rows,error",
        [("100,1.5\n200,0.5\n", "pdr must be in [0, 1]"), ("", "input CSV contains no samples")],
        ids=["pdr 1.5", "header only"],
    )
    def test_bad_samples_write_nothing(self, rows, error, tmp_path, capsys):
        src = tmp_path / "samples.csv"
        src.write_text(f"distance_m,pdr\n{rows}")
        out = tmp_path / "o"
        assert main(["fit-pdr", "--input", str(src), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert assert_one_line_error(capsys) == f"error: {error}\n"

    @pytest.mark.parametrize("row", ["200", "200,0.8,extra"])
    def test_row_unlike_the_header_writes_nothing(self, row, tmp_path, capsys):
        src = tmp_path / "samples.csv"
        src.write_text(f"distance_m,pdr\n100,0.9\n{row}\n")
        out = tmp_path / "o"
        assert main(["fit-pdr", "--input", str(src), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        err = assert_one_line_error(capsys)
        assert err == "error: input CSV line 3 does not match the header\n"


class TestDiagram:
    def test_prints_four_tables(self, capsys):
        rc = main(["diagram"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("===") == 8  # opening and closing fence per table
        assert "resolution in 3 slots" in out
        assert "resolution in 5 slots" in out
        assert "resolution in 7 slots" in out

    @pytest.mark.parametrize("F", ["-1", "-5"])
    def test_negative_threshold_is_config_error(self, F, capsys):
        assert main(["diagram", "--F", F]) == EXIT_CONFIG
        assert_one_line_error(capsys)
