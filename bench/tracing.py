"""Spans around the calls into each ``icsim`` layer, recorded from outside.

``Tracer.install`` replaces the names that ``icsim.sim`` and ``icsim.cli``
import (and ``IntersectionGeometry.cell_at``, ``protocol.build_enter`` and
``analytics.burst_length_pmf``, which are called from inside other layers)
with wrappers that record one span per call: name, start, end, parent span
and op id. Spans are kept in flat arrays in memory and written out once, at
the end. A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter_ns

import numpy as np

import icsim.analytics
import icsim.cli
import icsim.protocol
import icsim.sim
from icsim.kinematics import IntersectionGeometry

# (module, attribute, span name). The span name is the layer that owns the
# function; the list covers every name icsim.sim and icsim.cli import that
# does work, plus the calls made from inside other layers.
WRAPPED = (
    (icsim.sim, "SensorSnapshot", "protocol.SensorSnapshot"),
    (icsim.sim, "sd_main_step", "protocol.sd_main_step"),
    (icsim.sim, "enter_step", "protocol.enter_step"),
    (icsim.sim, "exit_step", "protocol.exit_step"),
    (icsim.sim, "build_enter", "protocol.build_enter"),
    (icsim.protocol, "build_enter", "protocol.build_enter"),
    (icsim.sim, "encode_message", "protocol.encode_message"),
    (icsim.sim, "enter_trigger", "kinematics.enter_trigger"),
    (icsim.sim, "priority_decision", "kinematics.priority_decision"),
    (icsim.sim, "yield_acceleration", "kinematics.yield_acceleration"),
    (IntersectionGeometry, "cell_at", "kinematics.cell_at"),
    (icsim.sim, "sample_delivery", "channel.sample_delivery"),
    (icsim.sim, "run_scenario", "sim.run_scenario"),
    (icsim.cli, "run_scenario", "sim.run_scenario"),
    (icsim.cli, "check_safety", "sim.check_safety"),
    (icsim.cli, "write_trace_csv", "sim.write_trace_csv"),
    (icsim.cli, "write_summary_json", "sim.write_summary_json"),
    (icsim.cli, "resolve_scenario", "scenarios.resolve_scenario"),
    (icsim.cli, "main", "cli.main"),
    (icsim.cli, "expected_enter_delay", "analytics.expected_enter_delay"),
    (icsim.cli, "v2v_probability", "analytics.v2v_probability"),
    (icsim.cli, "monte_carlo_enter_delay", "analytics.monte_carlo_enter_delay"),
    (icsim.analytics, "expected_enter_delay", "analytics.expected_enter_delay"),
    (icsim.analytics, "v2v_probability", "analytics.v2v_probability"),
    (icsim.analytics, "monte_carlo_enter_delay", "analytics.monte_carlo_enter_delay"),
    (icsim.analytics, "burst_length_pmf", "channel.burst_length_pmf"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._open: list[int] = []
        self._saved: list[tuple] = []
        self._wrappers: dict[int, callable] = {}
        self.hooks: dict[str, callable] = {}

    def _wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        rec_name, rec_parent, rec_op = self.name.append, self.parent.append, self.op.append
        rec_start, rec_end, stack = self.start.append, self.end.append, self._open
        hook = self.hooks.get(name)
        end = self.end

        def traced(*args, **kwargs):
            # both stamps are taken in here, so the bookkeeping of a span
            # is charged to the span itself and not to its parent's self time
            t0 = perf_counter_ns()
            i = len(end)
            rec_name(nid)
            rec_parent(stack[-1] if stack else -1)
            rec_op(self.op_id)
            rec_start(t0)
            rec_end(0)
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, out)
                return out
            finally:
                stack.pop()
                end[i] = perf_counter_ns()

        return traced

    def install(self) -> None:
        wrapped = self._wrappers  # one wrapper per function, for every importer
        for owner, attr, name in WRAPPED:
            fn = owner.__dict__[attr]
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(fn, name)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def layer_times(self, scale) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ns and self ns, each span's times
        multiplied by ``scale[op id]``."""
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros(len(dur), dtype=np.int64)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        factor = np.asarray(scale)[np.frombuffer(self.op, dtype=np.int32)]
        own = (dur - child) * factor
        dur = dur * factor
        out = {}
        for nid, n in enumerate(self.names):
            sel = name == nid
            out[n] = {
                "calls": int(sel.sum()),
                "total_ns": float(dur[sel].sum()),
                "self_ns": float(own[sel].sum()),
            }
        return out

    def write(self, stem) -> None:
        """Spans as five little-endian arrays (``<stem>.spans``) and their
        layout and names as JSON (``<stem>.json``)."""
        cols = (self.name, self.start, self.end, self.parent, self.op)
        with open(f"{stem}.spans", "wb") as fh:
            for col in cols:
                col.tofile(fh)
        with open(f"{stem}.json", "w") as fh:
            json.dump(
                {
                    "spans": len(self.start),
                    "columns": [
                        ["name", "int32"],
                        ["start_ns", "int64"],
                        ["end_ns", "int64"],
                        ["parent", "int32"],
                        ["op", "int32"],
                    ],
                    "names": self.names,
                },
                fh,
                indent=1,
            )
