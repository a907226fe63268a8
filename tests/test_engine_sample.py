"""Behaviour oracle for the engine on random channels with many slots to lose.

``tests/test_golden.py`` pins seeded runs with F <= 8, and
``tests/test_search_oracle.py`` scripted losses with 2-3 cars and F <= 3.
Here seeded 3- and 4-car scenarios run on each of the 8 random channels
(``distance_iid`` and ``correlated`` at both decay rates) with F in
{8, 15, 30}, in both record modes, and one sha256 pins their rows, events,
summaries, violations and ``slots_run``. Delivery and the ENTER rounds key
on sets of message records, so CI also runs this file under two string-hash
seeds.

A refactor must leave the digest unchanged, like the golden digests.
"""

import hashlib
import json
import random

from icsim.analytics import DECAY_HARSH, DECAY_OPEN_FIELD
from icsim.channel import CorrelatedBurst, DistanceIID
from icsim.kinematics import APPROACH_LANES, EXIT_LANES, Route
from icsim.sim import Scenario, VehicleSpec, run_scenario

CHANNELS = tuple(
    DistanceIID(lam) if xi is None else CorrelatedBurst(lam, xi)
    for lam in (DECAY_OPEN_FIELD, DECAY_HARSH)
    for xi in (None, 0.5, 0.7, 0.9)
)
SAMPLE_DIGEST = "31f2b736810ae51ff996caad4f41c720c18048c6ec61c4a34f5c576d14631519"
SAMPLE_RUNS = 48


def sample():
    """One seeded scenario per (car count, channel, F): cars on distinct
    approaches with random routes, 90-110 m out at 10-13 m/s."""
    rng = random.Random("engine-sample")
    for n in (3, 4):
        for channel in CHANNELS:
            for F in (8, 15, 30):
                vehicles = []
                for uid, k in enumerate(sorted(rng.sample(range(4), n)), 1):
                    route = Route(APPROACH_LANES[k], EXIT_LANES[(k + rng.randint(1, 3)) % 4])
                    x, v = rng.uniform(90.0, 110.0), rng.uniform(10.0, 13.0)
                    vehicles.append(VehicleSpec(uid=uid, route=route, x=x, v=v))
                yield Scenario(
                    vehicles=tuple(vehicles), channel=channel, F=F, seed=rng.randrange(1 << 31)
                )


def test_random_channel_sample_unchanged():
    digest = hashlib.sha256()
    runs = 0
    names = set()
    for scenario in sample():
        for record in (False, True):
            trace = run_scenario(scenario, record=record)
            digest.update(repr((
                [tuple(r) for r in trace.rows], trace.events, trace.violations, trace.slots_run,
            )).encode())
            digest.update(json.dumps(trace.summary, sort_keys=True).encode())
            names |= {name for _, _, name in trace.events}
        runs += 1
    # the sample reaches the fallback and the second-round paths
    assert {"SWITCH_SD", "REENTER", "FALLBACK_GO"} <= names
    assert (runs, digest.hexdigest()) == (SAMPLE_RUNS, SAMPLE_DIGEST)
