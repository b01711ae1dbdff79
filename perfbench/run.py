#!/usr/bin/env python3
"""Carbon Explorer sweep benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig14 --seed 1 --seconds 20 --trace 0

Workloads (``fig14``, ``rank13``, ``screen13``) are described in
``workloads.py``; every one runs through the production ``sweep_fleet`` /
``SweepEngine`` path on the program under ``src/``.  Inputs (the synthetic
weather and demand of every site) come from ``--seed``.

A run builds the site contexts cold several times, makes one untimed
warm-up sweep, then times complete sweeps for ``--seconds`` (at least the
workload's ``min_sweeps``), each on freshly built, cache-cold contexts.
Every sweep's output is checked (``check.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
designs, and ``metrics``.

* ``--trace 0`` reports the end-to-end metrics, all medians over the
  run's samples: ``sweep_s`` (wall seconds of one complete sweep, from the
  first ``sweep_fleet`` call to the last site's frontier, knee and
  winner), ``peak_rss_mb`` (peak PSS of the benchmark process and its pool
  workers during a timed sweep) and ``setup_s`` (one cold build of every
  site context of the workload).
* ``--trace 1`` reports the per-layer metrics (``layers.py``), medians
  over traced sweeps that alternate with untraced ones until the traced
  ones add up to half of ``--seconds``.

The line before the result, prefixed ``perfbench-detail``, holds every
sample and a host-speed reference (a fixed CPU workload timed during the
run) so drift of the host can be told apart from drift of the code.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Extra cold context builds per run, for the ``setup_s`` median.
SETUP_BUILDS = 5
#: A run stops starting sweeps after this long, so it ends within 180 s
#: even on a much slower host.
RUN_BUDGET_S = 130.0
#: PSS sampling period.
PSS_INTERVAL_S = 0.05


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--spin-combined-s",
        type=float,
        default=0.0,
        help="busy-spin this long inside every combined_run_batch call "
        "(the injected slowdown of sensitivity.py)",
    )
    return parser.parse_args(argv)


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    init = SRC / "repro" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def host_reference() -> float:
    """Seconds for a fixed workload: interpreter loop, small numpy ops on
    one year of hours (cache-resident, like the kernels), and passes over
    a 64 MB array (memory-bound, like the screen's projection cache)."""
    import numpy as np

    hours = np.linspace(0.0, 1.0, 8784)
    big = np.ones(8_000_000)
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    for _ in range(1000):
        hours = np.minimum(hours * 1.0000001, 2.0)
    for _ in range(3):
        np.multiply(big, 1.0000001, out=big)
    return time.perf_counter() - start


def src_lines() -> int:
    return sum(
        path.read_bytes().count(b"\n") for path in (SRC / "repro").rglob("*.py")
    )


def wait_for_pool_exit(timeout_s: float = 10.0) -> None:
    """Wait until every pool worker of the last sweep has ended."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker, if a sweep started one."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def dir_bytes(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class PssSampler:
    """Peak PSS of this process tree, sampled by a child (see pss.py)."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "pss.py"), str(os.getpid()), str(PSS_INTERVAL_S)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def reset(self) -> None:
        self._proc.stdin.write("reset\n")
        self._proc.stdin.flush()

    def peak_mb(self) -> float:
        self._proc.stdin.write("peak\n")
        self._proc.stdin.flush()
        return int(self._proc.stdout.readline()) / 1024.0

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=10)
        self._proc.stdout.close()


class Run:
    """One benchmark run of one workload."""

    def __init__(self, args) -> None:
        from check import CheckReport
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.report = CheckReport()
        self.setup_s = []
        self.host_s = []
        self.started = time.perf_counter()
        self.journal_dir = WORK / str(os.getpid())
        self.reference = None
        self.sampler = None
        self.peaks = []

    def build(self):
        from workloads import cold_contexts

        start = time.perf_counter()
        contexts = cold_contexts(self.workload, self.args.seed)
        self.setup_s.append(time.perf_counter() - start)
        return contexts

    def sweep(self, contexts, scope=contextlib.nullcontext):
        """One timed sweep inside ``scope()``; checks it against the warm-up."""
        from check import check_repeat
        from workloads import run_sweep

        gc.collect()
        with scope():
            start = time.perf_counter()
            outcomes = run_sweep(self.workload, contexts, str(self.journal_dir))
            elapsed = time.perf_counter() - start
        if self.sampler is not None:
            self.peaks.append(self.sampler.peak_mb())
        check_repeat(self.reference, outcomes, self.report)
        wait_for_pool_exit()
        self.host_s.append(host_reference())
        return elapsed

    def more(self, samples, seconds: float, minimum: int) -> bool:
        if time.perf_counter() - self.started > RUN_BUDGET_S:
            return False
        return len(samples) < minimum or sum(samples) < seconds

    def warm_up(self) -> None:
        from check import check_oracle_sample, check_sweep
        from workloads import run_sweep

        self.host_s.extend(host_reference() for _ in range(3))
        for _ in range(SETUP_BUILDS):
            self.build()
        contexts = self.build()
        self.reference = run_sweep(self.workload, contexts, str(self.journal_dir))
        wait_for_pool_exit()
        check_sweep(self.workload, self.reference, self.report)
        check_oracle_sample(
            self.workload, contexts, self.reference, self.args.seed, self.report
        )

    def end_to_end(self):
        self.sampler = PssSampler()
        try:
            times = []
            while self.more(times, self.args.seconds, self.workload.min_sweeps):
                contexts = self.build()
                self.sampler.reset()
                times.append(self.sweep(contexts))
                del contexts
        finally:
            self.sampler.close()
            self.sampler = None
        detail = {"sweep_s": times, "peak_rss_mb": self.peaks}
        metrics = {
            "sweep_s": (statistics.median(times), "s"),
            "peak_rss_mb": (statistics.median(self.peaks), "MB"),
            "setup_s": (statistics.median(self.setup_s), "s"),
        }
        return metrics, detail

    def per_layer(self, probe):
        from layers import ROOT as ROOT_SPAN, SETUP_ROOT, layer_metrics, setup_metrics
        from repro.obs import (
            disable_metrics,
            disable_tracing,
            enable_metrics,
            enable_tracing,
            get_tracer,
            reset_metrics,
            reset_tracing,
            span,
            trace_roots,
        )

        untraced, traced, samples = [], [], []
        # Alternate untraced and traced sweeps, so the tracing overhead is
        # a median of adjacent pairs, not of two stretches of host drift.
        while self.more(traced, self.args.seconds / 2.0, 1):
            untraced.append(self.sweep(self.build()))
            enable_tracing()
            enable_metrics()
            try:
                reset_tracing()
                reset_metrics()
                probe.reset()
                shutil.rmtree(self.journal_dir, ignore_errors=True)
                with span(SETUP_ROOT):
                    contexts = self.build()
                traced.append(self.sweep(contexts, lambda: span(ROOT_SPAN)))
                sample = setup_metrics(trace_roots())
                sample.update(
                    layer_metrics(
                        trace_roots(),
                        get_tracer().foreign_spans(),
                        probe,
                        self.workload.workers,
                        os.getpid(),
                    )
                )
                sample["resilience.checkpoint.journal_bytes"] = dir_bytes(
                    self.journal_dir
                )
                samples.append(sample)
                del contexts
            finally:
                disable_tracing()
                disable_metrics()
                reset_tracing()
        metrics = {
            name: (statistics.median(s[name] for s in samples), _unit(name))
            for name in samples[0]
        }
        metrics["obs.tracing_overhead_frac"] = (
            statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0,
            "ratio",
        )
        metrics["repro.src_lines"] = (src_lines(), "lines")
        detail = {"untraced_sweep_s": untraced, "traced_sweep_s": traced}
        return metrics, detail


def _unit(name: str) -> str:
    if name.endswith("_frac") or name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    if name.endswith("ns_per_design_hour"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(HERE))
    import layers

    if args.spin_combined_s > 0.0:
        layers.inject_spin(args.spin_combined_s)
    probe = layers.install() if args.trace else None

    run = Run(args)
    try:
        run.warm_up()
        if args.trace:
            metrics, detail = run.per_layer(probe)
        else:
            metrics, detail = run.end_to_end()
    finally:
        wait_for_pool_exit()
        stop_resource_tracker()
        shutil.rmtree(run.journal_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    host = statistics.median(run.host_s)
    if args.trace:
        metrics["host.reference_s"] = (host, "s")
    detail.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "setup_s": run.setup_s,
            "host_reference_s": host,
            "problems": run.report.problems,
        }
    )
    print("perfbench-detail " + json.dumps(detail))
    result = {
        "correct": run.report.failed == 0,
        "attempted": run.report.attempted,
        "failed": run.report.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
