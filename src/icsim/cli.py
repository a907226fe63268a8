"""Command-line front end.

Subcommands: ``simulate`` runs a scenario and writes the trace CSV plus a
summary JSON; ``sweep-delay`` and ``v2v-prob`` emit plot-ready CSV curves;
``fit-pdr`` fits the exponential delivery-ratio decay to a sample CSV;
``diagram`` prints slot-by-slot tables for the four scripted failure
scenarios. Exit codes: 0 ok, 1 configuration error, 2 safety violation,
3 liveness failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

from .analytics import (
    DECAY_HARSH,
    DECAY_OPEN_FIELD,
    PdrSample,
    expected_enter_delay,
    fit_decay_rate,
    monte_carlo_enter_delay,
    v2v_probability,
)
from .channel import CorrelatedBurst, DistanceIID, pdr
from .protocol import simulate_enter_round
from .scenarios import BUNDLED, resolve_scenario
from .sim import check_safety, run_scenario, write_summary_json, write_trace_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SAFETY = 2
EXIT_LIVENESS = 3

ENVIRONMENTS = (("open-field", DECAY_OPEN_FIELD), ("harsh", DECAY_HARSH))


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise ValueError(what)


def _parse_xi_set(text: str) -> list[float | None]:
    out: list[float | None] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token in ("iid", "none"):
            out.append(None)
        else:
            _require(0 <= float(token) < 1, f"xi must be in [0, 1), got {token}")
            out.append(float(token))
    _require(out, "empty xi set")
    return out


def _distances(args) -> list[float]:
    _require(
        all(map(math.isfinite, (args.d_min, args.d_max, args.d_step)))
        and 0 <= args.d_min <= args.d_max
        and args.d_step > 0,
        "need finite 0 <= d_min <= d_max and a positive d_step",
    )
    # above half the float spacing at the loop's limit, a step advances every d
    _require(args.d_step > math.ulp(args.d_max + 1e-9) / 2, "d_step is below the float spacing at d_max")
    out = []
    d = args.d_min
    while d <= args.d_max + 1e-9:
        out.append(round(d, 9))
        d += args.d_step
    return out


def _out_paths(name: str, *files: str) -> list[Path]:
    """The paths of ``files`` in the ``--out`` directory, made if missing.
    Each file is opened for appending once, so one that cannot be written
    is refused before the command does any work."""
    out = Path(name)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot use --out {name}: {exc.strerror or exc}") from exc
    paths = [out / f for f in files]
    for path in paths:
        try:
            open(path, "a").close()
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return paths


def _require_delivery(distances) -> None:
    for env, lam in ENVIRONMENTS:
        for d in distances:
            _require(pdr(d, lam) > 0, f"the {env} delivery ratio is 0 at {d!r} m")


def cmd_simulate(args) -> int:
    try:
        scenario = resolve_scenario(args.scenario)
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
        if args.F is not None:
            scenario = replace(scenario, F=args.F)
        trace_path, summary_path = _out_paths(args.out, "trace.csv", "summary.json")
    except ValueError as exc:  # ScenarioError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    trace = run_scenario(scenario)
    write_trace_csv(trace, trace_path)
    write_summary_json(trace, summary_path)
    violations = check_safety(trace)
    print(f"slots run: {trace.slots_run}")
    for uid, stats in sorted(trace.summary["vehicles"].items(), key=lambda kv: int(kv[0])):
        print(
            f"vehicle {uid}: enter_delay={stats['enter_delay']} "
            f"mainctrl={stats['mainctrl_slots']} fallback={stats['fallback_slot']} "
            f"done={stats['done_slot']} v2v_used={stats['v2v_used']}"
        )
    if violations:
        print(f"SAFETY VIOLATIONS: {len(violations)}", file=sys.stderr)
        return EXIT_SAFETY
    if not trace.summary["all_done"]:
        print("liveness failure: not all vehicles crossed", file=sys.stderr)
        return EXIT_LIVENESS
    return EXIT_OK


def cmd_sweep_delay(args) -> int:
    try:
        _require(min(args.F, args.trials, args.seed) >= 0, "F, trials and seed must be >= 0")
        distances = _distances(args)
        _require_delivery(distances)
        xi_set = _parse_xi_set(args.xi)
        (path,) = _out_paths(args.out, "delay_curve.csv")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["environment", "xi", "distance_m", "expected_delay_slots"]
        if args.trials:
            header += ["mc_mean_slots", "mc_stderr_slots"]
        writer.writerow(header)
        for env, lam in ENVIRONMENTS:
            for xi in xi_set:
                for d in distances:
                    p = pdr(d, lam)
                    row = [
                        env,
                        "iid" if xi is None else repr(xi),
                        repr(d),
                        repr(expected_enter_delay(p, args.F, xi)),
                    ]
                    if args.trials:
                        model = (
                            DistanceIID(lam)
                            if xi is None
                            else CorrelatedBurst(lam, xi)
                        )
                        mean, err = monte_carlo_enter_delay(
                            model, d, args.F, args.trials, args.seed
                        )
                        row += [repr(mean), repr(err)]
                    writer.writerow(row)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_v2v_prob(args) -> int:
    try:
        xi_set = _parse_xi_set(args.xi)
        _require(args.F_max >= 0, "F must be nonnegative")
        dists = [float(t) for t in args.d.split(",") if t.strip()]
        _require(dists, "empty distance list")
        _require(all(math.isfinite(d) and d >= 0 for d in dists), "distances must be finite and nonnegative")
        _require_delivery(dists)
        (path,) = _out_paths(args.out, "v2v_probability.csv")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["environment", "distance_m", "xi", "F", "p_v2v"])
        for env, lam in ENVIRONMENTS:
            for d in dists:
                p = pdr(d, lam)
                for xi in xi_set:
                    for F in range(0, args.F_max + 1):
                        writer.writerow(
                            [
                                env,
                                repr(d),
                                "iid" if xi is None else repr(xi),
                                F,
                                repr(v2v_probability(p, F, xi)),
                            ]
                        )
    print(f"wrote {path}")
    return EXIT_OK


def cmd_fit_pdr(args) -> int:
    try:
        samples = _read_pdr_csv(args.input)
        lam = fit_decay_rate(samples)
        (path,) = _out_paths(args.out, "pdr_residuals.csv")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["distance_m", "pdr", "model_pdr", "residual"])
        for s in samples:
            model = pdr(s.distance, lam)
            writer.writerow([repr(s.distance), repr(s.pdr), repr(model), repr(s.pdr - model)])
    print(f"lambda = {lam!r}")
    print(f"wrote {path}")
    return EXIT_OK


def _read_pdr_csv(path) -> list[PdrSample]:
    samples = []
    with open(path, newline="", encoding="utf-8-sig") as fh:  # spreadsheets write a BOM
        reader = csv.DictReader(fh)
        if not {"distance_m", "pdr"} <= set(reader.fieldnames or ()):
            raise ValueError("input CSV must have a 'distance_m,pdr' header")
        for row in reader:
            if None in row or None in row.values():
                raise ValueError(f"input CSV line {reader.line_num} does not match the header")
            samples.append(PdrSample(distance=float(row["distance_m"]), pdr=float(row["pdr"])))
    if not samples:
        raise ValueError("input CSV contains no samples")
    return samples


DIAGRAM_CASES = (
    ("no failures (0,0)", frozenset()),
    ("single miss (0,1)", frozenset({(2, 1)})),
    ("burst of three (0,3)", frozenset({(2, 1), (2, 2), (2, 3)})),
    ("simultaneous (2,2)", frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})),
)


def cmd_diagram(args) -> int:
    for title, losses in DIAGRAM_CASES:
        try:
            result = simulate_enter_round(2, F=args.F, losses=set(losses))
        except ValueError as exc:  # raised by the first case, before any output
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"=== {title}: resolution in {result.resolution_slot()} slots ===")
        print(f"{'slot':>4} {'uid':>3} {'f':>2}  {'sent':<24} {'received':<40} action")
        for entry in result.log:
            sent = ",".join(m.split(":")[0] for m in entry["sent"])
            recv = ",".join(m.split(":")[0] + ":" + m.split(":")[1] for m in entry["received"])
            print(
                f"{entry['slot']:>4} {entry['uid']:>3} {entry['f']:>2}  "
                f"{sent:<24} {recv:<40} {entry['action']}"
            )
        print()
    return EXIT_OK


@functools.cache  # parse_args keeps no state, so one parser serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icsim",
        description="Fault-tolerant V2V intersection-crossing simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write trace + summary")
    p.add_argument(
        "--scenario",
        required=True,
        help=f"scenario JSON path or bundled name ({', '.join(sorted(BUNDLED))})",
    )
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p.add_argument("--F", type=int, default=None, help="override failure threshold")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep-delay", help="expected delay vs distance curves")
    p.add_argument("--out", default="out")
    p.add_argument("--F", type=int, default=30)
    p.add_argument("--xi", default="iid,0.5,0.7,0.9", help="comma list; 'iid' for independent slots")
    p.add_argument("--d-min", dest="d_min", type=float, default=0.0)
    p.add_argument("--d-max", dest="d_max", type=float, default=500.0)
    p.add_argument("--d-step", dest="d_step", type=float, default=25.0)
    p.add_argument("--trials", type=int, default=0, help="add Monte Carlo columns with this many trials")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sweep_delay)

    p = sub.add_parser("v2v-prob", help="V2V usage probability vs failure threshold")
    p.add_argument("--out", default="out")
    p.add_argument("--F", dest="F_max", type=int, default=30, help="sweep F from 0 to this value")
    p.add_argument("--xi", default="iid,0.5,0.7,0.9")
    p.add_argument("--d", default="200,400", help="comma list of distances in meters")
    p.set_defaults(func=cmd_v2v_prob)

    p = sub.add_parser("fit-pdr", help="fit the exponential decay rate to samples")
    p.add_argument("--input", required=True, help="CSV with 'distance_m,pdr' header")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_fit_pdr)

    p = sub.add_parser("diagram", help="print the scripted failure-scenario tables")
    p.add_argument("--F", type=int, default=8)
    p.set_defaults(func=cmd_diagram)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
