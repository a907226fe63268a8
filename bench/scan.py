"""Find the candidate ``simulate`` scenarios that fail, and why.

    python3 bench/scan.py

Run from the root of a checkout. Every candidate of the seeded ``simulate``
design (``workloads.candidate(k, j)``) runs through ``icsim simulate`` as in
the benchmark. For each one that exits 2 (co-occupancy) or 3 (not all
done), the scan re-runs it with ``priority_decision`` wrapped and prints
``(k, j)``, the exit code and the fault behind it:

- ``priority``: a car was told to proceed although a car it shares a cell
  with arrives first and within ``tau_th`` of it;
- ``split``: two cars decided last on different ENTER sets, or on
  different arrival times of one car;
- ``crossing``: a car was told to proceed in a round that left out a car
  it shares a cell with and that was already crossing;
- ``other``: none of these.

The last line is the set to paste into ``workloads.FAILING_CANDIDATES``.
A seeded op that fails would fail on some seeds only, so these candidates
are never drawn.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]

import icsim.cli  # noqa: E402
import icsim.sim  # noqa: E402
from icsim.scenarios import scenario_from_dict  # noqa: E402

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402


def _pairwise_yields(entries, j, tau_th) -> bool:
    """Whether ``j`` must yield to some car it shares a cell with."""
    rj, tj = entries[j]
    for i, (ri, ti) in entries.items():
        if i == j or not _share_cell((rj.clane, rj.nlane), (ri.clane, ri.nlane)):
            continue
        if abs(tj - ti) <= tau_th and (ti < tj or (ti == tj and i > j)):
            return True
    return False


def _share_cell(a, b) -> bool:
    return bool(set(O.cells(*a)) & set(O.cells(*b)))


def fault(data: dict) -> str:
    verdicts = []  # (entries, decisions, tau_th) per MAINCTRL, in order
    real = icsim.sim.priority_decision

    def recording(entries, geometry, tau_th):
        verdict = real(entries, geometry, tau_th)
        verdicts.append((dict(entries), verdict.decisions, tau_th))
        return verdict

    icsim.sim.priority_decision = recording
    try:
        trace = icsim.sim.run_scenario(scenario_from_dict(data), record=False)
    finally:
        icsim.sim.priority_decision = real
    deciders = [(s, u) for s, u, e in trace.events if e == "MAINCTRL"]
    crossing = {}  # uid -> [CROSS_START slot, EXITED slot]
    for s, u, e in trace.events:
        if e in ("CROSS_START", "EXITED"):
            crossing.setdefault(u, [s, math.inf])[e == "EXITED"] = s
    routes = {v["uid"]: (v["clane"], v["nlane"]) for v in data["vehicles"]}
    last = {}
    priority = blind = False
    for (slot, uid), (entries, decisions, tau_th) in zip(deciders, verdicts):
        last[uid] = {u: tau for u, (_, tau) in entries.items()}
        if decisions[uid]:
            priority |= _pairwise_yields(entries, uid, tau_th)
            blind |= any(
                c not in entries and _share_cell(routes[c], routes[uid]) and s0 <= slot < s1
                for c, (s0, s1) in crossing.items()
            )
    split = any(
        a < b and ((b in last[a]) != (a in last[b]) or (b in last[a] and last[a] != last[b]))
        for a in last
        for b in last
    )
    found = (("priority", priority), ("split", split), ("crossing", blind))
    return "+".join(name for name, hit in found if hit) or "other"


def main() -> int:
    work = os.path.join(ROOT, "bench", "out", "scan")
    failing = []
    try:
        os.makedirs(work, exist_ok=True)
        for k in range(W.SIM_GENERATED):
            for j in range(W.SIM_CANDIDATES):
                data = W.candidate(k, j)
                path = os.path.join(work, "scenario.json")
                with open(path, "w") as fh:
                    json.dump(data, fh)
                with open(os.devnull, "w") as null, contextlib.redirect_stdout(null), contextlib.redirect_stderr(null):
                    rc = icsim.cli.main(["simulate", "--scenario", path, "--out", os.path.join(work, "out")])
                if rc != icsim.cli.EXIT_OK:
                    failing.append((k, j))
                    print(k, j, rc, fault(data), json.dumps(data["vehicles"]), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(sorted(failing))
    return 0


if __name__ == "__main__":
    sys.exit(main())
