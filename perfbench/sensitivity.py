#!/usr/bin/env python3
"""Sensitivity and attribution checks, made from outside the program.

::

    python3 perfbench/sensitivity.py [--runs 5] [--seed 21]

Sensitivity: a busy-spin inside every ``combined_run_batch`` call, sized
to 20% of ``fig14``'s untraced ``sweep_s``, must be flagged on ``fig14``
and not on ``screen13``, which never calls that function.  Clean and
injected runs go in pairs, alternating which runs first, and a workload is
flagged when the injected run is slower in at least nine tenths of the
pairs and the medians differ by more than the clean runs' interquartile
range (the paired rule for a small, noisy host).  Whether the change also
exceeds the ``sweep_s`` bound is printed alongside.  A traced ``fig14``
run with the spin must book all of it to ``kernels.combined_batch.self_s``.

Attribution: traced ``fig14`` and ``screen13`` runs must leave at most 5%
of the sweep's wall time outside the named layers; the traced ``rank13``
run reports worker busy plus idle time against wall time x workers; every
workload reports its tracing overhead.

Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from harness import bounds, run_once, run_seconds, value

INJECTED_SHARE = 0.20
MAX_UNATTRIBUTED = 0.05


def _sweep_s(workload: str, seed: int, seconds: float, extra=()) -> float:
    run = run_once(workload, seed, seconds, 0, extra)
    if not run["result"]["correct"]:
        raise RuntimeError(f"{workload}: incorrect output {run['detail']['problems']}")
    return value(run, "sweep_s")


def paired_sweeps(workload: str, seeds, seconds: float, spin):
    """Clean and injected runs in pairs, alternating which runs first."""
    clean, slowed = [], []
    for index, seed in enumerate(seeds):
        if index % 2 == 0:
            clean.append(_sweep_s(workload, seed, seconds))
            slowed.append(_sweep_s(workload, seed, seconds, spin))
        else:
            slowed.append(_sweep_s(workload, seed, seconds, spin))
            clean.append(_sweep_s(workload, seed, seconds))
    return clean, slowed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    args = parser.parse_args(argv)
    seeds = [args.seed + i for i in range(args.runs)]
    bound = bounds()["sweep_s"]
    checks = []

    traced = {
        w: run_once(w, args.seed, args.seconds, 1) for w in ("fig14", "screen13", "rank13")
    }
    calls = value(traced["fig14"], "kernels.combined_batch.calls")
    untraced = statistics.median(traced["fig14"]["detail"]["untraced_sweep_s"])
    spin_s = INJECTED_SHARE * untraced / calls
    spin = ("--spin-combined-s", repr(spin_s))
    print(f"fig14: {calls:g} combined_run_batch calls per sweep; injecting "
          f"{spin_s:.4f} s per call ({INJECTED_SHARE:.0%} of {untraced:.3f} s)")
    for workload, expect in (("fig14", True), ("screen13", False)):
        clean, slowed = paired_sweeps(workload, seeds, args.seconds, spin)
        change = statistics.median(slowed) / statistics.median(clean) - 1.0
        slower = sum(s > c for s, c in zip(slowed, clean))
        q1, _, q3 = statistics.quantiles(clean, n=4)
        flagged = (
            slower >= 0.9 * len(seeds)
            and statistics.median(slowed) - statistics.median(clean) > q3 - q1
        )
        checks.append(flagged == expect)
        print(f"{workload}: sweep_s {statistics.median(clean):.4f} -> "
              f"{statistics.median(slowed):.4f} s ({change:+.3f}); slower in "
              f"{slower}/{len(seeds)} pairs, clean IQR {q3 - q1:.4f} s: "
              f"{'flagged' if flagged else 'not flagged'}"
              f"{'' if flagged == expect else '  FAIL'}; "
              f"{'beyond' if change > bound else 'within'} the {bound} bound")

    traced_spin = run_once("fig14", args.seed, args.seconds, 1, spin)
    booked = value(traced_spin, "kernels.combined_batch.self_s")
    injected = spin_s * calls
    added = booked - value(traced["fig14"], "kernels.combined_batch.self_s")
    # The spin is wall-clock exact, the kernel's own time is not, so the
    # check is that the whole injected time sits inside the layer's self
    # time and nothing escapes to the unattributed rest.
    inside = booked >= injected
    escaped = value(traced_spin, "obs.unattributed_frac")
    checks.append(inside and escaped <= MAX_UNATTRIBUTED)
    print(f"traced fig14 with the spin: kernels.combined_batch.self_s {booked:.3f} s "
          f">= {injected:.3f} s injected: {inside}; grew by {added:.3f} s "
          f"({added / injected:.0%} of the injected time); unattributed {escaped:.4f}"
          f"{'' if inside and escaped <= MAX_UNATTRIBUTED else '  FAIL'}")

    for workload, run in traced.items():
        unattributed = value(run, "obs.unattributed_frac")
        line = (f"{workload}: unattributed {unattributed:.4f}, tracing overhead "
                f"{value(run, 'obs.tracing_overhead_frac'):+.3f}")
        if workload != "rank13":
            checks.append(unattributed <= MAX_UNATTRIBUTED)
            line += "" if unattributed <= MAX_UNATTRIBUTED else "  FAIL"
        else:
            line += (f", worker busy {value(run, 'core.engine.worker_busy_frac'):.3f}"
                     f", busy+idle over wall x workers "
                     f"{value(run, 'core.engine.worker_accounted_frac'):.4f}")
        print(line)
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
