"""Command-line interface tests: exit codes, output files, reproducibility."""

import copy
import csv
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsim.cli import EXIT_CONFIG, EXIT_OK, main
from icsim.scenarios import bundled_scenario, scenario_to_dict


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
            (("F",), 1e400),
        ],
        ids=repr,
    )
    def test_exits_1_with_one_line(self, path, value, tmp_path, capsys):
        assert run_simulate(fig5b(path, value), tmp_path) == EXIT_CONFIG
        assert_one_line_error(capsys)

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
def test_any_mutated_scenario_gives_an_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        assert run_simulate(data, Path(tmp)) in (0, 1, 2, 3)


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
         ["--d-max", "inf"], ["--seed", "-1", "--trials", "5"]],
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
        "flags", [["--xi", "1.5"], ["--d", "-5"], ["--d", "200,nan"]], ids=" ".join
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


class TestDiagram:
    def test_prints_four_tables(self, capsys):
        rc = main(["diagram"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("===") == 8  # opening and closing fence per table
        assert "resolution in 3 slots" in out
        assert "resolution in 5 slots" in out
        assert "resolution in 7 slots" in out
