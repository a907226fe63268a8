"""The traced round and the per-layer metrics computed from its spans.

Counts come from the spans and from hooks on the program's return values
(the event log of each ``run_scenario``, the outbox of each ``enter_step``,
the size of each written ``trace.csv``), so they repeat exactly for a seed.
Times per call are a span's self time, except for the analytics entry
points and the output phases of ``icsim simulate``, which are totals; all
are normalised to the reference host like the end-to-end times (``clock``),
except the two ``host.raw_*`` figures.
"""

from __future__ import annotations

import contextlib
import os
import statistics
from collections import Counter
from time import perf_counter_ns

from clock import Clock
from tracing import Tracer
from workloads import FAILED

PROTOCOL_STEPS = ("sd_main_step", "enter_step", "exit_step", "build_enter")
KINEMATICS = ("priority_decision", "enter_trigger", "yield_acceleration", "cell_at")
OUTPUT_PHASES = ("check_safety", "write_trace_csv", "write_summary_json")


def _count_run(counts: Counter, trace) -> None:
    n = len(trace.scenario.vehicles)
    counts["vslots"] += trace.slots_run * n
    crossing_from = {}
    for slot, uid, event in trace.events:
        if event in ("CROSS_START", "EXITED"):
            crossing_from.setdefault(uid, slot)
        elif event in ("SWITCH_V2V", "REENTER"):
            counts["rounds"] += 1
        elif event == "MAINCTRL":
            counts["mainctrl"] += 1
    # slots after the one in which the last car became CROSSING or DONE:
    # pure kinematics
    if len(crossing_from) == n:
        counts["kinematic_vslots"] += (trace.slots_run - max(crossing_from.values())) * n


def traced_round(wl) -> dict:
    """One round of ``wl`` in which every op runs twice, first untraced and
    then traced, so that the tracing overhead is measured pairwise. Both
    outputs are checked as in every later round."""
    counts: Counter = Counter()
    tracer = Tracer()
    tracer.hooks = {
        "sim.run_scenario": lambda args, trace: _count_run(counts, trace),
        "protocol.enter_step": lambda args, out: counts.update(messages=len(out[1].outbox)),
        "sim.write_trace_csv": lambda args, out: counts.update(trace_bytes=os.path.getsize(args[1])),
        "analytics.monte_carlo_enter_delay": lambda args, out: counts.update(trials=args[3]),
    }
    plain, traced, starts, failed = [], [], [], 0
    clock = Clock()
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null), contextlib.redirect_stderr(null):
        for i in range(len(wl)):
            t0 = perf_counter_ns()
            result = wl.run_op(i)
            plain.append(perf_counter_ns() - t0)
            failed += wl.check(i, result, False) == FAILED
            tracer.op_id = i
            tracer.install()
            try:
                t0 = perf_counter_ns()
                result = wl.run_op(i)
                traced.append(perf_counter_ns() - t0)
            finally:
                tracer.uninstall()
            starts.append(t0)
            failed += wl.check(i, result, False) == FAILED
            clock.tick(plain[-1] + traced[-1])
    clock.sample()
    return {
        "tracer": tracer,
        "counts": counts,
        "plain_ns": plain,
        "traced_ns": traced,
        "scale": [clock.scale(t) for t in starts],
        "failed": failed,
    }


def per_layer(traced: dict) -> dict:
    times = traced["tracer"].layer_times(traced["scale"])
    counts = traced["counts"]
    ops = len(traced["traced_ns"])
    vslots = counts["vslots"]

    def get(name, key):
        return times.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    def self_us_per_call(name):
        return ratio(get(name, "self_ns") / 1e3, get(name, "calls"))

    m = {
        "sim.self_us_per_vslot": (ratio(get("sim.run_scenario", "self_ns") / 1e3, vslots), "us"),
        "sim.vslots_per_op": (vslots / ops, "count"),
        "sim.kinematic_vslots_per_op": (counts["kinematic_vslots"] / ops, "count"),
        "protocol.snapshots_per_vslot": (ratio(get("protocol.SensorSnapshot", "calls"), vslots), "ratio"),
    }
    for f in PROTOCOL_STEPS:
        m[f"protocol.{f}.calls_per_op"] = (get(f"protocol.{f}", "calls") / ops, "count")
        m[f"protocol.{f}.us_per_call"] = (self_us_per_call(f"protocol.{f}"), "us")
    m["protocol.messages_per_op"] = (counts["messages"] / ops, "count")
    m["protocol.mainctrl_per_round"] = (ratio(counts["mainctrl"], counts["rounds"]), "ratio")
    m["protocol.encode_message.us_per_op"] = (get("protocol.encode_message", "self_ns") / 1e3 / ops, "us")
    for f in KINEMATICS:
        m[f"kinematics.{f}.calls_per_op"] = (get(f"kinematics.{f}", "calls") / ops, "count")
        m[f"kinematics.{f}.us_per_call"] = (self_us_per_call(f"kinematics.{f}"), "us")
    m["channel.sample_delivery.calls_per_op"] = (get("channel.sample_delivery", "calls") / ops, "count")
    m["channel.sample_delivery.us_per_call"] = (self_us_per_call("channel.sample_delivery"), "us")
    for f in OUTPUT_PHASES:
        m[f"sim.{f}.us_per_op"] = (get(f"sim.{f}", "total_ns") / 1e3 / ops, "us")
    m["sim.trace_bytes_per_op"] = (counts["trace_bytes"] / ops, "bytes")
    m["scenarios.resolve_scenario.us_per_op"] = (get("scenarios.resolve_scenario", "total_ns") / 1e3 / ops, "us")
    m["cli.main.self_us_per_op"] = (get("cli.main", "self_ns") / 1e3 / ops, "us")
    m["analytics.monte_carlo_enter_delay.ns_per_trial"] = (
        ratio(get("analytics.monte_carlo_enter_delay", "total_ns"), counts["trials"]),
        "ns",
    )
    for f in ("expected_enter_delay", "v2v_probability"):
        n = f"analytics.{f}"
        m[f"{n}.us_per_call"] = (ratio(get(n, "total_ns") / 1e3, get(n, "calls")), "us")
    m["channel.burst_length_pmf.calls_per_op"] = (get("channel.burst_length_pmf", "calls") / ops, "count")
    # ops/s untraced over ops/s traced, on the same ops
    m["trace.overhead_pct"] = ((sum(traced["traced_ns"]) / sum(traced["plain_ns"]) - 1.0) * 100.0, "%")
    # the untraced ops' raw host times, not normalised: to check a
    # comparison against when a change moves work the kernel does not track
    plain = sorted(traced["plain_ns"])
    m["host.raw_ops_per_s"] = (len(plain) / sum(plain) * 1e9, "1/s")
    m["host.raw_op_ms_p50"] = (statistics.median(plain) / 1e6, "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def write_spans(traced: dict, stem) -> None:
    os.makedirs(os.path.dirname(stem), exist_ok=True)
    traced["tracer"].write(stem)
