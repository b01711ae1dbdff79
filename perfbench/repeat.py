#!/usr/bin/env python3
"""Exact-repeat check: count-type per-layer metrics repeat across runs.

::

    python3 perfbench/repeat.py [--seed 7] [--workloads fig14 ...]

For each workload: two traced runs with one seed must report every count
below identically; a third run with the next seed shows which counts
depend on the seed.  Exits 1 if a count differs between the two runs of
one seed.

Counts that depend on timing, not on the inputs, are left out and listed
in :data:`TIMING_DEPENDENT`.
"""

from __future__ import annotations

import argparse
import sys

from harness import benchmark_spec, run_once, value

#: Counts fixed by the inputs and the program: they must repeat exactly.
EXACT_SUFFIXES = (
    ".calls",
    ".design_hours",
    "_calls",
    ".chunks",
    ".journal_bytes",
    ".bytes_shared",
    ".result_bytes",
    ".src_lines",
)

#: Counts that depend on how the pool's two workers interleave: which
#: worker attaches which site's segment, whether a site drains early
#: enough for its capacity to be stolen, whether a slow chunk trips the
#: adaptive stall budget.
TIMING_DEPENDENT = (
    "core.engine.capacity_steals",
    "core.engine.chunk_retries",
    "core.shm.attach_count",
)


def exact_metrics():
    return [
        m["name"]
        for m in benchmark_spec()["per_layer"]
        if m["name"].endswith(EXACT_SUFFIXES) and m["name"] not in TIMING_DEPENDENT
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args(argv)
    workloads = args.workloads or [w["name"] for w in benchmark_spec()["workloads"]]
    names = exact_metrics()
    bad = 0
    for workload in workloads:
        first, again, other = (
            run_once(workload, seed, args.seconds, 1)
            for seed in (args.seed, args.seed, args.seed + 1)
        )
        print(f"{workload}: seed {args.seed} twice, then seed {args.seed + 1}")
        for name in names:
            a, b, c = value(first, name), value(again, name), value(other, name)
            verdict = "repeats" if a == b else "DIFFERS"
            bad += a != b
            seeded = "seed-dependent" if c != a else "seed-independent"
            print(f"  {name:42} {a:>14.10g} {b:>14.10g} {verdict:8} {seeded} ({c:.10g})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
