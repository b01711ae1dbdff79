"""Output checks: every design of every sweep is counted attempted or failed.

Three checks, all outside the timed region:

* :func:`check_sweep` — invariants on every evaluation (coverage in
  [0, 1]; imports, surplus, operational and embodied carbon >= 0; total =
  operational + embodied), a complete grid per site, and each site's
  frontier, knee and winner against a brute-force oracle over the swept
  evaluations;
* :func:`check_repeat` — a later sweep of the same inputs must reproduce
  the checked one bit for bit (so every timed sweep inherits its check);
* :func:`check_oracle_sample` — a seeded sample of designs per (site,
  strategy) re-evaluated with the per-design oracle
  :func:`repro.core.evaluate.evaluate_design` and compared bit for bit.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.evaluate import evaluate_design

_FLOAT_FIELDS = (
    "coverage",
    "operational_tons",
    "renewables_embodied_tons",
    "battery_embodied_tons",
    "servers_embodied_tons",
    "grid_import_mwh",
    "surplus_mwh",
    "moved_mwh",
    "battery_cycles_per_day",
)

#: Designs re-evaluated with the per-design oracle per (site, strategy).
ORACLE_SAMPLE = 4

#: The tie tolerance :func:`repro.core.pareto.pareto_frontier` applies on
#: the operational axis.
_FRONTIER_EPS = 1e-12


@dataclass
class CheckReport:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def bits(evaluation) -> tuple:
    """Exact identity of an evaluation: its design and every float's bits."""
    values = [getattr(evaluation, name) for name in _FLOAT_FIELDS]
    return (
        evaluation.design,
        evaluation.strategy,
        struct.pack(f"<{len(values)}d", *values),
    )


def _invariant_errors(e) -> List[str]:
    errors = []
    if not 0.0 <= e.coverage <= 1.0:
        errors.append(f"coverage {e.coverage!r} outside [0, 1]")
    for name in (
        "grid_import_mwh",
        "surplus_mwh",
        "operational_tons",
        "renewables_embodied_tons",
        "battery_embodied_tons",
        "servers_embodied_tons",
    ):
        if not getattr(e, name) >= 0.0:
            errors.append(f"{name} {getattr(e, name)!r} < 0")
    embodied = (
        e.renewables_embodied_tons + e.battery_embodied_tons + e.servers_embodied_tons
    )
    if not e.embodied_tons >= 0.0:
        errors.append(f"embodied {e.embodied_tons!r} < 0")
    if e.total_tons != e.operational_tons + embodied:
        errors.append("total != operational + embodied")
    return errors


def _frontier_errors(evaluations: Sequence, frontier: Sequence) -> List[str]:
    """Brute-force oracle: the frontier is exactly the non-dominated set.

    No evaluation strictly dominates a frontier point, and every
    evaluation is weakly dominated by a frontier point.
    """
    points = [(e.embodied_tons, e.operational_tons) for e in evaluations]
    front = [(f.embodied_tons, f.operational_tons) for f in frontier]
    for fx, fy in front:
        for x, y in points:
            if x <= fx and y <= fy and (x < fx or y < fy - _FRONTIER_EPS):
                return [f"frontier point ({fx!r}, {fy!r}) is dominated"]
    for x, y in points:
        if not any(fx <= x and fy <= y + _FRONTIER_EPS for fx, fy in front):
            return [f"design ({x!r}, {y!r}) is not covered by the frontier"]
    return []


def check_sweep(workload, outcomes: Sequence, report: CheckReport) -> None:
    """Invariants, completeness, frontier, knee and winner of one sweep."""
    for outcome in outcomes:
        label = f"{outcome.site}/{outcome.strategy.value}"
        report.attempted += outcome.total
        missing = outcome.total - len(outcome.evaluations)
        if outcome.status != "complete" or missing:
            report.fail(
                max(missing, 1), f"{label}: status {outcome.status}, {missing} missing"
            )
        for evaluation in outcome.evaluations:
            errors = _invariant_errors(evaluation)
            if errors:
                report.fail(1, f"{label}: {evaluation.design.describe()}: {errors[0]}")
        if not outcome.evaluations:
            continue
        errors = _frontier_errors(outcome.evaluations, outcome.frontier)
        if errors:
            report.fail(1, f"{label}: {errors[0]}")
        oracle_best = min(e.total_tons for e in outcome.evaluations)
        if outcome.winner is None or outcome.winner.total_tons != oracle_best:
            report.fail(1, f"{label}: winner is not the lowest-carbon design")
        if outcome.knee is None or outcome.knee.total_tons != min(
            e.total_tons for e in outcome.frontier
        ):
            report.fail(1, f"{label}: knee is not the frontier's lowest total")
        elif outcome.knee.total_tons != oracle_best:
            report.fail(1, f"{label}: knee total differs from the oracle winner")


def check_repeat(reference: Sequence, outcomes: Sequence, report: CheckReport) -> None:
    """A re-run of the same inputs must match the checked sweep bit for bit."""
    by_key = {(o.site, o.strategy): o for o in reference}
    for outcome in outcomes:
        label = f"{outcome.site}/{outcome.strategy.value}"
        report.attempted += outcome.total
        expected = by_key.get((outcome.site, outcome.strategy))
        if expected is None or outcome.status != "complete":
            report.fail(outcome.total, f"{label}: no complete reference to compare")
            continue
        if len(outcome.evaluations) != len(expected.evaluations):
            report.fail(outcome.total, f"{label}: grid size changed between sweeps")
            continue
        mismatched = sum(
            1
            for got, want in zip(outcome.evaluations, expected.evaluations)
            if bits(got) != bits(want)
        )
        if mismatched:
            report.fail(mismatched, f"{label}: {mismatched} designs differ on re-run")
        for name in ("knee", "winner"):
            got, want = getattr(outcome, name), getattr(expected, name)
            if got is None or want is None or bits(got) != bits(want):
                report.fail(1, f"{label}: {name} differs on re-run")


def check_oracle_sample(
    workload, contexts: Sequence[tuple], outcomes: Sequence, seed: int,
    report: CheckReport,
) -> None:
    """Re-evaluate a seeded sample per (site, strategy) with the oracle."""
    context_of: Dict[str, object] = dict(contexts)
    for outcome in outcomes:
        label = f"{outcome.site}/{outcome.strategy.value}"
        context = context_of[outcome.site]
        designs = list(workload.space(context).points(outcome.strategy))
        rng = random.Random(f"{seed}|{outcome.site}|{outcome.strategy.name}")
        sample = rng.sample(range(len(designs)), min(ORACLE_SAMPLE, len(designs)))
        for index in sample:
            report.attempted += 1
            if index >= len(outcome.evaluations):
                report.fail(1, f"{label}: design {index} missing")
                continue
            expected = evaluate_design(context, designs[index], outcome.strategy)
            if bits(expected) != bits(outcome.evaluations[index]):
                report.fail(
                    1, f"{label}: design {index} differs from the per-design oracle"
                )
