"""Behaviour oracle for the unrecorded engine path that the safety search runs.

``tests/test_golden.py`` pins the recorded outputs of ``icsim simulate``.
The exhaustive search runs ``run_scenario(record=False)`` instead, so here a
fixed sample of the acceptance search scope is pinned: one sha256 over each
run's events, summary, violations and ``slots_run``. On every golden input
the two record modes must also give the same run.

A refactor must leave the digest unchanged, like the golden digests.
"""

import hashlib
import itertools
import json

import pytest
from test_acceptance import (
    conflicting_pairs,
    conflicting_triples,
    loss_patterns,
    route_for,
    search_scenario,
)
from test_golden import DIGESTS, _reference

from icsim.scenarios import resolve_scenario
from icsim.sim import run_scenario

STRIDE = 401  # every STRIDE-th case of the scope, in enumeration order
SAMPLE_DIGEST = "f03233f79491c5376658def78a6e1a606cc7a0c74dc69470e28a24bb30a6416f"
SAMPLE_RUNS = 302


def search_scope():
    """(routes, losses, F) in the order of ``TestCriterion3And4SafetySearch``:
    two cars with up to 4 losses, three cars with up to 2, and one triple
    with up to 4."""
    for F in (2, 3):
        for routes in conflicting_pairs():
            for pattern in loss_patterns((1, 2), 2, F + 5, 4):
                yield routes, pattern, F
    for F in (2, 3):
        for routes in conflicting_triples():
            for pattern in loss_patterns((1, 2, 3), 2, F + 5, 2):
                yield routes, pattern, F
    routes = (route_for(0, 2), route_for(1, 2), route_for(2, 2))
    for pattern in loss_patterns((1, 2, 3), 2, 8, 4):
        yield routes, pattern, 3


def outcome(trace) -> tuple:
    return trace.events, trace.summary, trace.violations, trace.slots_run


def test_search_sample_unchanged():
    digest = hashlib.sha256()
    runs = fallbacks = reentries = 0
    for k, (routes, pattern, F) in enumerate(itertools.islice(search_scope(), 0, None, STRIDE)):
        scenario = search_scenario(routes, set(pattern), F)
        trace = run_scenario(scenario, record=False)
        if k % 10 == 0:
            assert outcome(run_scenario(scenario)) == outcome(trace), (routes, pattern, F)
        events, summary, violations, slots_run = outcome(trace)
        digest.update(repr((events, violations, slots_run)).encode())
        digest.update(json.dumps(summary, sort_keys=True).encode())
        runs += 1
        names = {name for _, _, name in events}
        fallbacks += "SWITCH_SD" in names
        reentries += "REENTER" in names
    # the sample reaches the fallback and the second-round paths
    assert fallbacks and reentries
    assert (runs, digest.hexdigest()) == (SAMPLE_RUNS, SAMPLE_DIGEST)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_record_modes_agree(name, tmp_path):
    scenario = resolve_scenario(_reference(name, tmp_path))
    bare = run_scenario(scenario, record=False)
    assert bare.rows == []
    assert outcome(bare) == outcome(run_scenario(scenario))
