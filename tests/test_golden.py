"""Behaviour oracle: pinned outputs of ``icsim simulate`` and the Monte Carlo.

Each case runs ``main(["simulate", ...])`` and pins the exit code plus the
sha256 of ``trace.csv``, a NUL byte and ``summary.json``. The inputs are the
bundled scenarios, every file under ``tests/scenarios`` and a few seeded
scenarios on the random channels, whose outputs depend on the order of the
channel's random draws. ``monte_carlo_enter_delay`` is pinned for each
channel model that has a burst law; the ``sweep-delay`` (with Monte Carlo
columns) and ``v2v-prob`` CSVs and the ``diagram`` tables by their sha256;
and ``expected_enter_delay`` and ``v2v_probability`` by exact value on a
grid of F, xi and distance.

A refactor must leave every value here unchanged. The digests change only in
a change that alters behaviour on purpose and says so in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from icsim.analytics import (
    DECAY_HARSH,
    expected_enter_delay,
    monte_carlo_enter_delay,
    v2v_probability,
)
from icsim.channel import CorrelatedBurst, DistanceIID, Perfect, pdr
from icsim.cli import main

SCENARIOS = Path(__file__).parent / "scenarios"

# Three cars on distinct approaches about 100 m out; the seeded cases use
# the first two or all three.
CARS = (
    ("H1R", "H3L", 100.0, 12.0),
    ("H2R", "H4L", 97.0, 11.0),
    ("H3R", "H2L", 94.0, 12.5),
)

# name: (channel, F, number of cars, seed)
SEEDED = {
    "iid_harsh_3car_s1": ({"type": "distance_iid", "lambda": 0.0013}, 8, 3, 1),
    "iid_harsh_3car_s2": ({"type": "distance_iid", "lambda": 0.0013}, 8, 3, 2),
    "iid_lossy_2car_s1": ({"type": "distance_iid", "lambda": 0.004}, 4, 2, 1),
    "iid_lossy_3car_s2": ({"type": "distance_iid", "lambda": 0.004}, 4, 3, 2),
    "corr_xi09_3car_s1": ({"type": "correlated", "lambda": 0.0013, "xi": 0.9}, 8, 3, 1),
    "corr_xi09_3car_s2": ({"type": "correlated", "lambda": 0.0013, "xi": 0.9}, 8, 3, 2),
    "corr_xi05_2car_s1": ({"type": "correlated", "lambda": 0.004, "xi": 0.5}, 4, 2, 1),
    "corr_xi05_3car_s2": ({"type": "correlated", "lambda": 0.004, "xi": 0.5}, 4, 3, 2),
}

# scenario reference: (exit code, sha256 of trace.csv + NUL + summary.json)
DIGESTS = {
    "fig5a": (0, "1941d75841a8cf3a3e441770217887729ac9d3b9a77e9c0c6efadb32af22b3f5"),
    "fig5b": (0, "9e32d77fa3ac6f9f68ac4af5e9714d3327250f6f45a66ba9dc1ffca57ecf668a"),
    "fig5c": (0, "34a1f610d29d8b614deec1151d2893c5bdb23a7421210fc80d854183d19d0773"),
    "fig5d": (0, "1a7939c608fe4f2dc16ff749e97b39d1ffbecaea820cca7f19846640a7dc1c5a"),
    "allloss": (0, "3cc6d953ee5f58bf7960624e9230cc0ec9cd6899757aceaad808b1b6678c94a4"),
    "arrival_time_mismatch": (0, "44c9e9bf82a99033a2063f2c36241f35e49937eca84738349e78323255fea6b3"),
    "fallback_creep": (0, "1b2987f1a09848193dfd519ae9596a67624ba5bb8f7d30b41b9d50ec8945ade5"),
    "fallback_overshoot": (0, "43fe963d4a5ae5ba4407da276fb9d2afe3a7df74eb5c218b155cd3d75628e2dd"),
    "second_round_burst": (0, "54674a6c8f9e83b1f0e19dabc706e43842a8d045826171f77c0b0d1f75ed0f54"),
    "rest_start": (0, "37e6f07702bb3ac1406bb31ed27fffd04e4cd12d890687796295d215df0312af"),
    "fault_late_joiner": (2, "2c4f2aaae74ee7af4557d0baa493d0cef977f34f862eddede2c61322a7d4916c"),
    "fault_open_round": (2, "fb55a02ee4cc9635667970f23fae3d3d0d2ba621514c6626cfd7de99985b9b2a"),
    "fault_priority_min": (2, "87b4a215c624563137dc135068845623716c51f6f1deab51fb2baf2fc5ee84e1"),
    "fault_slow_pair": (2, "c376b6843342e7dcbbe076de8cec8faded83df00b84e1cd7b9e8e7472f1174d9"),
    "fault_split_view": (3, "c0370d0181dcc5917d21afbb8a0dc9da2dcefa6680a28c94b4507cf96c0b4daa"),
    "iid_harsh_3car_s1": (0, "093c8696fc9b3d0bc965407a5521c85a96011e68d2b5d59db75bf97f7c35f43b"),
    "iid_harsh_3car_s2": (0, "46a20926df68e1be3f59d96bce2d0485c4aa089702499003deed289d4b3c3609"),
    "iid_lossy_2car_s1": (0, "49cd8bbcb587993bc0a41f349b00c4267d267f8458c80d25f5d8991d6a2ef6a0"),
    "iid_lossy_3car_s2": (0, "aea0ad40b88c3108e2d98efa4c06292d2f42c40a03689342c9d552af6f0d8cd3"),
    "corr_xi09_3car_s1": (0, "c862f8b3bcdbf1d1e25ceead4f19287e1d0c33a8204443cb003fa2a9b8c2bd03"),
    "corr_xi09_3car_s2": (0, "2258ff832b5441cdc18d31c839b6063774be483ab1e339514c8e662afb9cdd00"),
    "corr_xi05_2car_s1": (0, "aa2bf5f32059e5e28fc74e40437ccc03110f7bfa79b266e1215e9b1bd8cb9f11"),
    "corr_xi05_3car_s2": (0, "5bc653806ee797753877505c42810706bf1358a1361ababcf3f98a5451c5e5e9"),
}

# (model, d, F, trials, seed): (mean, stderr)
MONTE_CARLO = [
    ((Perfect(), 100.0, 30, 1000, 0), (3.0, 0.0)),
    ((Perfect(), 0.0, 4, 1, 0), (3.0, 0.0)),
    ((DistanceIID(0.0013), 300.0, 20, 5000, 99), (3.7624, 0.01625675565483114)),
    ((DistanceIID(0.00063), 450.0, 8, 2000, 5), (3.525, 0.020914258368432543)),
    ((CorrelatedBurst(0.0013, 0.9), 400.0, 30, 3000, 3), (10.327333333333334, 0.1300808815801088)),
    ((CorrelatedBurst(0.00063, 0.5), 250.0, 15, 2000, 7), (3.586, 0.028402558910709752)),
]

# subcommand: (arguments after --out, output file, its sha256)
CURVE_CSVS = {
    "sweep-delay": (
        ["--trials", "500", "--seed", "3"],
        "delay_curve.csv",
        "6e3df69b00bbc4662642f1f6b9f903a031b9a2224accc5111632714ae712de21",
    ),
    "v2v-prob": (
        [],
        "v2v_probability.csv",
        "b6429f32976ce6f4b94a29e742fe5393b9867152bc78768387b0a6526fc4a5e2",
    ),
}

# ``icsim diagram`` arguments: sha256 of its standard output
DIAGRAMS = {
    (): "41162b9d750b3f2d387adfd1ede7a8dc20704a2d7e875587f5c5873513f4d495",  # F = 8
    ("--F", "2"): "d623859d68318c8ddecd5e46202c207b28c8bfcf66f4094a199bfe29af483ee3",
}

# (F, xi, d) at the harsh decay rate: (expected_enter_delay, v2v_probability)
ANALYTICS = {
    (0, None, 100.0): (2.9999999999999996, 0.892956154883005),
    (0, None, 300.0): (3.0, 0.7813491368070589),
    (0, None, 500.0): (3.0, 0.7504860162729965),
    (0, 0.5, 100.0): (2.9999999999999996, 0.892956154883005),
    (0, 0.5, 300.0): (3.0, 0.7813491368070589),
    (0, 0.5, 500.0): (3.0, 0.7504860162729965),
    (0, 0.9, 100.0): (2.9999999999999996, 0.892956154883005),
    (0, 0.9, 300.0): (3.0, 0.7813491368070589),
    (0, 0.9, 500.0): (3.0, 0.7504860162729965),
    (2, None, 100.0): (3.24062186605981, 0.9984092509658378),
    (2, None, 300.0): (3.5986894543948713, 0.9771964068218156),
    (2, None, 500.0): (3.827938062588589, 0.9430009657958149),
    (2, 0.5, 100.0): (3.3091783305134097, 0.9732390387207512),
    (2, 0.5, 300.0): (3.652667603044185, 0.9453372842017647),
    (2, 0.5, 500.0): (3.8351310507331053, 0.9376215040682492),
    (2, 0.9, 100.0): (3.376120766560121, 0.9132944854552341),
    (2, 0.9, 300.0): (3.7605292562896304, 0.8228928008137176),
    (2, 0.9, 500.0): (3.9518440602402642, 0.7978936731811272),
    (8, None, 100.0): (3.2474869155984303, 0.9999999947793862),
    (8, None, 300.0): (3.7207269768197597, 0.999974132196734),
    (8, None, 500.0): (4.22673988909109, 0.9993205064829828),
    (8, 0.5, 100.0): (3.514941873373897, 0.9995818599800117),
    (8, 0.5, 300.0): (4.031696066466489, 0.9991458950656525),
    (8, 0.5, 500.0): (4.285366530054407, 0.9990253360010664),
    (8, 0.9, 100.0): (4.835702114793291, 0.953921134644815),
    (8, 0.9, 300.0): (5.901943040320806, 0.9058779729572429),
    (8, 0.9, 500.0): (6.276171568723928, 0.8925924115690513),
    (15, None, 100.0): (3.247486973760173, 0.9999999999999979),
    (15, None, 300.0): (3.7210901468798796, 0.9999999905236333),
    (15, None, 500.0): (4.238803126165274, 0.9999961284092689),
    (15, 0.5, 100.0): (3.522608462785918, 0.9999967332810938),
    (15, 0.5, 300.0): (4.046258568252901, 0.9999933273052004),
    (15, 0.5, 500.0): (4.303022330509629, 0.9999923854375083),
    (15, 0.9, 100.0): (6.257284123185526, 0.9779606215450977),
    (15, 0.9, 300.0): (7.764286580048667, 0.9549817262437331),
    (15, 0.9, 500.0): (8.241159679124612, 0.9486272834170014),
    (30, None, 100.0): (3.247486973760228, 1.0),
    (30, None, 300.0): (3.7210904001662146, 0.9999999999999996),
    (30, None, 500.0): (4.2389298828772715, 0.9999999999399264),
    (30, 0.5, 100.0): (3.522715000647626, 0.9999999999003076),
    (30, 0.5, 300.0): (4.04646558408215, 0.9999999997963656),
    (30, 0.5, 500.0): (4.3032763201552475, 0.999999999767622),
    (30, 0.9, 100.0): (7.954297857489366, 0.9954622874192577),
    (30, 0.9, 300.0): (9.950706360653387, 0.9907311366513754),
    (30, 0.9, 500.0): (10.548939335623086, 0.9894228132239489),
}


def _reference(name, tmp_path) -> str:
    if name in SEEDED:
        channel, F, n, seed = SEEDED[name]
        data = {
            "schema": 1,
            "F": F,
            "seed": seed,
            "channel": channel,
            "vehicles": [
                {"uid": u, "clane": cl, "nlane": nl, "x": x, "v": v, "a": 0.0}
                for u, (cl, nl, x, v) in enumerate(CARS[:n], 1)
            ],
        }
        path = tmp_path / f"{name}.scenario.json"
        path.write_text(json.dumps(data))
        return str(path)
    if (SCENARIOS / f"{name}.scenario.json").exists():
        return str(SCENARIOS / f"{name}.scenario.json")
    return name  # bundled


def test_every_scenario_file_is_pinned():
    files = {p.name.removesuffix(".scenario.json") for p in SCENARIOS.glob("*.scenario.json")}
    assert files <= DIGESTS.keys()


def _simulate(ref, out) -> tuple[int, str]:
    rc = main(["simulate", "--scenario", ref, "--out", str(out)])
    blob = (out / "trace.csv").read_bytes() + b"\0" + (out / "summary.json").read_bytes()
    return rc, hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_simulate_outputs_unchanged(name, tmp_path, capsys):
    assert _simulate(_reference(name, tmp_path), tmp_path / "out") == DIGESTS[name]


def test_a_rerun_into_one_out_rewrites_every_output(tmp_path, capsys):
    # each case runs twice into the out of the case before it, whose files
    # are longer or shorter than its own
    out = tmp_path / "out"
    for name in sorted(DIGESTS):
        ref = _reference(name, tmp_path)
        assert [_simulate(ref, out), _simulate(ref, out)] == [DIGESTS[name]] * 2, name


@pytest.mark.parametrize("case", range(len(MONTE_CARLO)))
def test_monte_carlo_values_unchanged(case):
    (model, d, F, trials, seed), expected = MONTE_CARLO[case]
    assert monte_carlo_enter_delay(model, d, F, trials, seed) == expected


@pytest.mark.parametrize("command", sorted(CURVE_CSVS))
def test_curve_csvs_unchanged(command, tmp_path, capsys):
    args, name, digest = CURVE_CSVS[command]
    assert main([command, "--out", str(tmp_path), *args]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("args", sorted(DIAGRAMS))
def test_diagram_output_unchanged(args, capsys):
    assert main(["diagram", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DIAGRAMS[args]


@pytest.mark.parametrize("key", sorted(ANALYTICS, key=repr))
def test_analytics_values_unchanged(key):
    F, xi, d = key
    p = pdr(d, DECAY_HARSH)
    assert (expected_enter_delay(p, F, xi), v2v_probability(p, F, xi)) == ANALYTICS[key]
