"""Benchmark icsim end to end and per layer.

    python3 bench/run.py --workload {search,simulate,curves} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; ``icsim`` is imported from ``src/``. Each
run is one process on one thread, a closed loop of one op at a time over
whole rounds of the workload's ops, until ``--seconds`` have passed. With
``--trace 0`` it times the ops and prints the end-to-end metrics. With
``--trace 1`` it runs one checked round, then one more round in which each
op runs untraced and then with spans around every call into an icsim
layer, writes the spans under ``bench/out/`` and prints the per-layer
metrics. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (name ->
value and unit).
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SINGLE_THREAD = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in SINGLE_THREAD.items()):
    # hash seed and thread counts are fixed before the interpreter starts
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **SINGLE_THREAD})

import argparse  # noqa: E402
from array import array  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

from clock import WINDOW, Clock  # noqa: E402

SETUPS = 5  # set-ups per run; setup_s is their median
WARM_OPS = 8  # untimed ops after each set-up; on simulate, those that do not depend on the seed
MIN_OPS = 1000  # so that ten op times lie beyond the 99th percentile
OUT = Path(ROOT) / "bench" / "out"


def timed_rounds(wl, seconds: float, first: bool, min_ops: int = 0):
    """Whole rounds until ``seconds`` have passed and ``min_ops`` ops have
    been timed. Returns the op durations in ns, normalised to the reference
    host (see ``clock``), the raw ones, the work the ops did and the number
    that failed."""
    from workloads import FAILED

    clock = Clock()
    # compact, so that the benchmark's own memory stays small next to icsim's
    starts, raw, work, failed = array("q"), array("q"), 0, 0
    t_end = perf_counter() + seconds
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null), contextlib.redirect_stderr(null):
        while True:
            for i in range(len(wl)):
                t0 = perf_counter_ns()
                result = wl.run_op(i)
                t1 = perf_counter_ns()
                starts.append(t0)
                raw.append(t1 - t0)
                failed += wl.check(i, result, first) == FAILED
                work += wl.work(i, result)
                clock.tick(t1 - t0)
            first = False
            if perf_counter() >= t_end and len(raw) >= min_ops:
                clock.sample()
                durations = array("d", (d * clock.scale(t) for t, d in zip(starts, raw)))
                return durations, raw, work, failed


def percentile(sorted_values, q: float):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def p99_ms(durations, round_ops: int) -> float:
    """The median, over groups of consecutive whole rounds of at least
    MIN_OPS ops, of each group's 99th percentile: a burst of host slowness
    that the reference kernel misses lifts the tail of one group, not the
    figure reported."""
    size = math.ceil(MIN_OPS / round_ops) * round_ops
    # the last group also takes the rounds left over
    cuts = [g * size for g in range(len(durations) // size)] + [len(durations)]
    return statistics.median(
        [percentile(sorted(durations[a:b]), 0.99) / 1e6 for a, b in zip(cuts, cuts[1:])]
    )


def end_to_end(wl, durations, work, setup_times) -> dict:
    """The end-to-end metrics from normalised durations (ns)."""
    busy_s = sum(durations) / 1e9
    metrics = {
        "ops_per_s": (len(durations) / busy_s, "1/s"),
        "op_ms_p50": (statistics.median(durations) / 1e6, "ms"),
        "op_ms_p99": (p99_ms(durations, len(wl)), "ms"),
        "work_per_s": (work / busy_s, "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "sim_delay_s": (wl.sim_delay_s(), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "icsim")):
        print(f"error: no icsim sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"

    setup_times = []
    for k in range(SETUPS):
        shutil.rmtree(workdir, ignore_errors=True)  # the last set-up's files
        gc.collect()
        clock = Clock()
        for _ in range(2 * WINDOW):
            clock.sample()
        t0 = perf_counter_ns()
        wl = make(args.seed, workdir / str(k))
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null), contextlib.redirect_stderr(null):
            for i in range(min(WARM_OPS, len(wl))):
                wl.run_op(i)
        t1 = perf_counter_ns()
        for _ in range(WINDOW):
            clock.sample()
        setup_times.append((t1 - t0) / 1e9 * clock.scale(t1))

    try:
        if args.trace:
            import layers

            _, durations, _, failed = timed_rounds(wl, 0, True)
            traced = layers.traced_round(wl)
            metrics = layers.per_layer(traced)
            layers.write_spans(traced, OUT / f"spans-{args.workload}")
            attempted = len(durations) + 2 * len(traced["plain_ns"])
            failed += traced["failed"]
        else:
            durations, raw, work, failed = timed_rounds(wl, args.seconds, True, MIN_OPS)
            attempted = len(durations)
            metrics = end_to_end(wl, durations, work, setup_times)
            print(f"raw host: {len(raw) / sum(raw) * 1e9:.4f} ops/s, "
                  f"op_ms_p50 {statistics.median(raw) / 1e6:.4f}", file=sys.stderr)
        wl.finish()
    except workloads.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
