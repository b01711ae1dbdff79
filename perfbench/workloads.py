"""The benchmark's three workloads and the timed sweep they run.

Every workload goes through the production fleet path
(:func:`repro.core.sweep_fleet` over :class:`repro.core.engine.SweepEngine`)
and ends with the result a user asks for: per-site Pareto frontiers, knees
and winners.  Why each workload exists:

* ``fig14`` — the paper's Fig. 14 (OR, NC, UT; all four strategies; 1,320
  designs), serial with 512-row blocks.  Kernel-bound: almost all of its
  time is in the batched (design x hour) kernels, and the pool, shm plane
  and journal stay idle.
* ``rank13`` — what ``repro rank --workers 2 --checkpoint`` does by
  default: 13 sites, the combined strategy, 1,600 designs in about 416
  per-design chunks, shm trace plane, work stealing and one journal per
  site.  The only workload whose result waits on pool dispatch, IPC, shm
  and journal appends, and where kernels run one design at a time.
* ``screen13`` — a fine renewables-only screen (13 sites, 33 steps per
  renewable axis, 9,933 designs), serial.  It runs no hour-loop kernel:
  its time is supply projection, per-design evaluation and Pareto.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import evaluate as evaluate_module
from repro.core import fleet as fleet_module
from repro.core import pareto as pareto_module
from repro.core.design import Strategy, default_design_space
from repro.datacenter import SITE_ORDER
from repro.grid import dataset as dataset_module

FIG14_SITES = ("OR", "NC", "UT")


@dataclass(frozen=True)
class Workload:
    name: str
    sites: Tuple[str, ...]
    strategies: Tuple[Strategy, ...]
    n_renewable_steps: int
    battery_hours: Tuple[float, ...]
    extra_capacity_fractions: Tuple[float, ...]
    workers: int
    batch_size: Optional[int]
    journal: bool
    #: Timed sweeps a run makes at the least, whatever ``--seconds`` says:
    #: three for the ~10 s fig14 sweep, whose run-to-run spread is the
    #: widest; two for the ~13 s rank13 sweep, so a run stays under a minute.
    min_sweeps: int

    def space(self, context):
        """The workload's design space for one site, as ``repro`` builds it."""
        return default_design_space(
            avg_power_mw=context.demand.avg_power_mw,
            supports_solar=context.supports_solar,
            supports_wind=context.supports_wind,
            n_renewable_steps=self.n_renewable_steps,
            battery_hours=self.battery_hours,
            extra_capacity_fractions=self.extra_capacity_fractions,
        )


WORKLOADS: Dict[str, Workload] = {
    "fig14": Workload(
        name="fig14",
        sites=FIG14_SITES,
        strategies=tuple(Strategy),
        n_renewable_steps=5,
        battery_hours=(0.0, 2.0, 5.0, 10.0, 16.0),
        extra_capacity_fractions=(0.0, 0.25, 0.5),
        workers=1,
        batch_size=512,
        journal=False,
        min_sweeps=3,
    ),
    "rank13": Workload(
        name="rank13",
        sites=tuple(SITE_ORDER),
        strategies=(Strategy.RENEWABLES_BATTERY_CAS,),
        n_renewable_steps=4,
        battery_hours=(0.0, 2.0, 5.0, 10.0, 16.0),
        extra_capacity_fractions=(0.0, 0.5),
        workers=2,
        batch_size=None,
        journal=True,
        min_sweeps=2,
    ),
    "screen13": Workload(
        name="screen13",
        sites=tuple(SITE_ORDER),
        strategies=(Strategy.RENEWABLES_ONLY,),
        n_renewable_steps=33,
        battery_hours=(0.0,),
        extra_capacity_fractions=(0.0,),
        workers=1,
        batch_size=None,
        journal=False,
        min_sweeps=2,
    ),
}


def cold_contexts(workload: Workload, seed: int) -> List[tuple]:
    """Build every site context with both memo caches empty.

    This is the set-up a fresh ``repro`` invocation pays: grid synthesis,
    demand synthesis and the intensity trace.  The contexts are new
    objects, so their supply-projection and battery-seed caches are cold.
    Returns ``(site, context)`` pairs.  Calls go through module attributes
    so the layer wrappers see them.
    """
    with evaluate_module._context_cache_lock:
        evaluate_module._context_cache.clear()
    dataset_module.generate_grid_dataset.cache_clear()
    return [
        (site, evaluate_module.build_site_context(site, seed=seed))
        for site in workload.sites
    ]


@dataclass
class SiteOutcome:
    """What one (site, strategy) sweep produced."""

    site: str
    strategy: Strategy
    status: str
    total: int
    evaluations: tuple
    frontier: tuple
    knee: object
    winner: object


def run_sweep(
    workload: Workload, contexts: Sequence[tuple], journal_dir: Optional[str]
) -> List[SiteOutcome]:
    """One complete sweep of the workload: every strategy, every site.

    Ends with the per-site frontier, knee and winner, which is the answer
    the sweep exists to give.
    """
    sites = [(site, context, workload.space(context)) for site, context in contexts]
    outcomes: List[SiteOutcome] = []
    for strategy in workload.strategies:
        checkpoint = (
            os.path.join(journal_dir, f"journal-{strategy.name.lower()}")
            if workload.journal and journal_dir is not None
            else None
        )
        fleet = fleet_module.sweep_fleet(
            sites,
            strategy,
            workers=workload.workers,
            batch_size=workload.batch_size,
            checkpoint=checkpoint,
        )
        for sweep in fleet.sites:
            frontier = pareto_module.pareto_frontier(sweep.evaluations)
            outcomes.append(
                SiteOutcome(
                    site=sweep.site,
                    strategy=strategy,
                    status=sweep.status.value,
                    total=sweep.total,
                    evaluations=sweep.evaluations,
                    frontier=frontier,
                    knee=pareto_module.knee_point(frontier) if frontier else None,
                    winner=sweep.best,
                )
            )
    return outcomes
