#!/usr/bin/env python3
"""Steadiness check: do two separate sessions of runs agree?

Make one session, later another (not interleaved), then compare them::

    python3 perfbench/steady.py session --out a.json
    python3 perfbench/steady.py session --out b.json
    python3 perfbench/steady.py compare a.json b.json

A session runs every workload ``--runs`` times with ``--trace 0``, each run
with another seed, and prints each end-to-end metric's median and spread
(interquartile range over the median) next to the metric's bound.
``compare`` prints, per workload and metric, both medians, the drift from
the first session to the second (positive is worse), both spreads, the
bound and the drift of the host-speed reference over the same sessions, so
host drift can be told apart from code drift.  It exits 1 if a drift
exceeds its bound or a spread other than ``setup_s``'s does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from harness import benchmark_spec, bounds, run_once, run_seconds, spread


def session(args) -> int:
    spec = benchmark_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    metric_bounds = bounds()
    record = {"started": time.strftime("%Y-%m-%dT%H:%M:%S"), "runs": {}}
    failed = 0
    for workload in workloads:
        runs = []
        for index in range(args.runs):
            seed = args.first_seed + index
            run = run_once(workload, seed, args.seconds, 0)
            entry = {name: m["value"] for name, m in run["result"]["metrics"].items()}
            entry["host_reference_s"] = run["detail"]["host_reference_s"]
            entry["sweeps"] = run["detail"]["sweep_s"]
            entry["seed"] = seed
            entry["correct"] = run["result"]["correct"]
            entry["failed"] = run["result"]["failed"]
            failed += 0 if entry["correct"] else 1
            runs.append(entry)
            print(f"{workload} seed={seed} " + " ".join(
                f"{k}={entry[k]:.4f}" for k in metric_bounds) + (
                "" if entry["correct"] else " INCORRECT"), flush=True)
        record["runs"][workload] = runs
        for name, bound in metric_bounds.items():
            values = [r[name] for r in runs]
            s = spread(values) if len(values) > 1 else 0.0
            print(f"  {workload} {name}: median {statistics.median(values):.4f} "
                  f"spread {s:.3f} bound {bound} "
                  f"{'ok' if s <= bound / 3 or name == 'setup_s' else 'NOISY'}")
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=1)
    return 1 if failed else 0


def compare(args) -> int:
    first = json.load(open(args.first))
    second = json.load(open(args.second))
    metric_bounds = bounds()
    bad = 0
    print(f"sessions: {first['started']} vs {second['started']}")
    print(f"{'workload':9} {'metric':12} {'median A':>10} {'median B':>10} "
          f"{'drift':>7} {'spread A':>8} {'spread B':>8} {'bound':>6} {'host':>7}")
    for workload, runs_a in first["runs"].items():
        runs_b = second["runs"].get(workload)
        if not runs_b:
            continue
        host_a = statistics.median(r["host_reference_s"] for r in runs_a)
        host_b = statistics.median(r["host_reference_s"] for r in runs_b)
        for name, bound in metric_bounds.items():
            a = [r[name] for r in runs_a]
            b = [r[name] for r in runs_b]
            med_a, med_b = statistics.median(a), statistics.median(b)
            drift = med_b / med_a - 1.0  # every end-to-end metric is lower-better
            spread_a, spread_b = spread(a), spread(b)
            ok = drift <= bound and (
                name == "setup_s" or (spread_a <= bound and spread_b <= bound)
            )
            bad += 0 if ok else 1
            print(f"{workload:9} {name:12} {med_a:10.4f} {med_b:10.4f} "
                  f"{drift:+7.3f} {spread_a:8.3f} {spread_b:8.3f} {bound:6.2f} "
                  f"{host_b / host_a - 1.0:+7.3f}{'' if ok else '  FAIL'}")
    print("host = drift of the host-speed reference between the sessions")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("session", help="run every workload --runs times")
    p.add_argument("--out", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=run_seconds())
    p.add_argument("--workloads", nargs="*")
    p.set_defaults(handler=session)
    p = sub.add_parser("compare", help="compare two saved sessions")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
