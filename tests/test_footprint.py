"""Import footprint: NumPy loads only in the code paths that use it.

The Monte Carlo and ``fit-pdr`` use NumPy; importing the package, the
bundled scenarios, the random channels (whose streams are pure Python),
``diagram``, ``v2v-prob`` and closed-form ``sweep-delay`` do not. The test
process has NumPy loaded already, so each check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import icsim
from icsim.cli import EXIT_OK
from icsim.scenarios import BUNDLED, bundled_scenario, scenario_to_dict

# runs ``icsim`` with the given arguments (none: only imports the package)
# and prints the exit code and whether NumPy got loaded
CHECK = """
import contextlib, io, sys
import icsim, icsim.cli
rc = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = icsim.cli.main(sys.argv[1:])
print(rc, "numpy" in sys.modules)
"""

# fig5b on each random channel, written as <type>.json
RANDOM_CHANNELS = (
    {"type": "distance_iid", "lambda": 0.0013},
    {"type": "correlated", "lambda": 0.0013, "xi": 0.5},
)


def loads_numpy(cwd: Path, *argv: str) -> bool:
    env = dict(os.environ)
    src = str(Path(icsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", CHECK, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    rc, loaded = done.stdout.split()
    assert int(rc) == EXIT_OK, (argv, done.stderr)
    return loaded == "True"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        *(["simulate", "--scenario", name] for name in sorted(BUNDLED)),
        *(["simulate", "--scenario", f"{c['type']}.json"] for c in RANDOM_CHANNELS),
        ["diagram"],
        ["v2v-prob"],
        ["sweep-delay", "--trials", "0"],
    ],
    ids=lambda argv: " ".join(argv) or "import",
)
def test_numpy_is_not_loaded(argv, tmp_path):
    for channel in RANDOM_CHANNELS:
        data = {**scenario_to_dict(bundled_scenario("fig5b")), "channel": channel}
        (tmp_path / f"{channel['type']}.json").write_text(json.dumps(data))
    assert not loads_numpy(tmp_path, *argv)


def test_numpy_is_loaded_by_the_monte_carlo(tmp_path):
    assert loads_numpy(tmp_path, "sweep-delay", "--trials", "1", "--d-max", "0")


def test_numpy_is_loaded_by_a_fit(tmp_path):
    (tmp_path / "pdr.csv").write_text("distance_m,pdr\n100,0.9\n200,0.8\n")
    assert loads_numpy(tmp_path, "fit-pdr", "--input", "pdr.csv")
