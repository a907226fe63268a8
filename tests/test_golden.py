"""Behaviour oracle: pinned outputs of ``icsim simulate`` and the Monte Carlo.

Each case runs ``main(["simulate", ...])`` and pins the exit code plus the
sha256 of ``trace.csv``, a NUL byte and ``summary.json``. The inputs are the
bundled scenarios, every file under ``tests/scenarios`` and a few seeded
scenarios on the random channels, whose outputs depend on the order of the
channel's random draws. ``monte_carlo_enter_delay`` is pinned for each
channel model that has a burst law.

A refactor must leave every value here unchanged. The digests change only in
a change that alters behaviour on purpose and says so in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from icsim.analytics import monte_carlo_enter_delay
from icsim.channel import CorrelatedBurst, DistanceIID, Perfect
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
    "fault_late_joiner": (2, "2c4f2aaae74ee7af4557d0baa493d0cef977f34f862eddede2c61322a7d4916c"),
    "fault_priority_min": (2, "87b4a215c624563137dc135068845623716c51f6f1deab51fb2baf2fc5ee84e1"),
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


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_simulate_outputs_unchanged(name, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["simulate", "--scenario", _reference(name, tmp_path), "--out", str(out)])
    blob = (out / "trace.csv").read_bytes() + b"\0" + (out / "summary.json").read_bytes()
    assert (rc, hashlib.sha256(blob).hexdigest()) == DIGESTS[name]


@pytest.mark.parametrize("case", range(len(MONTE_CARLO)))
def test_monte_carlo_values_unchanged(case):
    (model, d, F, trials, seed), expected = MONTE_CARLO[case]
    assert monte_carlo_enter_delay(model, d, F, trials, seed) == expected
