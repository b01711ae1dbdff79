"""Shared plumbing of the check scripts: run ``run.py`` and read its output."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bounds() -> Dict[str, float]:
    return {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}


def run_seconds() -> int:
    return benchmark_spec()["run_seconds"]


def run_once(
    workload: str, seed: int, seconds: float, trace: int, extra: Sequence[str] = ()
) -> dict:
    """One ``run.py`` run; returns ``{"result": ..., "detail": ...}``."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    detail = lines[-2]
    if not detail.startswith("perfbench-detail "):
        raise RuntimeError(f"unexpected output from {' '.join(command)}")
    return {
        "result": json.loads(lines[-1]),
        "detail": json.loads(detail.split(" ", 1)[1]),
    }


def value(run: dict, metric: str) -> float:
    return run["result"]["metrics"][metric]["value"]


def spread(values: List[float]) -> float:
    """Interquartile range over the median (``statistics.quantiles``, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
