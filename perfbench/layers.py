"""Per-layer measurement from outside the program.

:func:`install` wraps the public functions at each layer boundary in a
:func:`repro.obs.span` named ``pb.<layer>``.  It must run before any sweep
pool forks: fork-started workers inherit the wrapped module attributes,
record the spans while the engine has tracing on, and ship them home in
the engine's existing chunk telemetry.  Nothing under ``src/`` changes.
A wrapper costs one flag check while tracing is off.

:func:`layer_metrics` turns one traced sweep (the parent's span tree plus
the ingested worker records) into the ``<module>.<quantity>`` metrics.  A
layer's self time is its span's wall time minus the wall time of the
nearest ``pb.`` spans below it; the program's own spans are transparent.
Seconds are summed over processes, so on the pooled workload the kernel
and evaluation layers add up both workers' time.
"""

from __future__ import annotations

import functools
import pickle
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import engine as engine_module
from repro.core import evaluate as evaluate_module
from repro.core import fleet as fleet_module
from repro.core import pareto as pareto_module
from repro.obs import get_registry, span, tracing_enabled
from repro.resilience import checkpoint as checkpoint_module

PREFIX = "pb."
ROOT = "pb.sweep"
SETUP_ROOT = "pb.setup"

#: ``time.time() - time.perf_counter()``: maps worker span records (unix
#: time) onto the parent's ``perf_counter`` axis.
_ABS_OFFSET = time.time() - time.perf_counter()


class Probe:
    """Parent-side facts the spans do not carry, for the current sweep."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.dispatch_windows: List[Tuple[float, float]] = []
        self.first_commits: List[float] = []
        self.result_bytes = 0
        self._awaiting_commit = False


def _block_attrs(args: tuple, kwargs: dict) -> Dict[str, Any]:
    supply = args[1]
    return {"rows": int(supply.shape[0]), "hours": int(supply.shape[1])}


def _battery_block_attrs(args: tuple, kwargs: dict) -> Dict[str, Any]:
    attrs = _block_attrs(args, kwargs)
    seeds = kwargs.get("seeds") or ()
    attrs["seeded_rows"] = sum(stop - start for start, stop, _ in seeds)
    return attrs


def _per_design_attrs(args: tuple, kwargs: dict) -> Dict[str, Any]:
    return {"rows": 1, "hours": len(args[0])}


def _wrap(
    owner: Any,
    attr: str,
    layer: str,
    attrs: Optional[Callable[[tuple, dict], Dict[str, Any]]] = None,
) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracing_enabled():
            return original(*args, **kwargs)
        extra = attrs(args, kwargs) if attrs is not None else {}
        with span(layer, **extra):
            return original(*args, **kwargs)

    setattr(owner, attr, wrapper)


def _spin(original: Callable, seconds: float) -> Callable:
    @functools.wraps(original)
    def spinning(*args, **kwargs):
        until = time.perf_counter() + seconds
        while time.perf_counter() < until:
            pass
        return original(*args, **kwargs)

    return spinning


def inject_spin(seconds: float) -> None:
    """Busy-spin ``seconds`` inside every ``combined_run_batch`` call.

    The injected slowdown of the sensitivity check.  Call it before
    :func:`install`, so the spin sits inside the layer span and a traced
    run books it to ``kernels.combined_batch``.
    """
    from repro.kernels import batch as batch_module

    spun = _spin(batch_module.combined_run_batch, seconds)
    batch_module.combined_run_batch = spun
    evaluate_module.combined_run_batch = spun


def install() -> Probe:
    """Wrap every layer boundary; returns the parent-side probe."""
    ev = evaluate_module
    _wrap(ev, "generate_grid_dataset", "pb.grid.synthetic.generate")
    _wrap(ev, "synthesize_demand", "pb.datacenter.demand.synthesize")
    _wrap(ev, "build_site_context", "pb.core.evaluate.build_site_context")
    _wrap(ev.SupplyProjectionCache, "project", "pb.grid.scaling.project")
    _wrap(ev, "battery_run_batch", "pb.kernels.battery_batch", _battery_block_attrs)
    _wrap(ev, "schedule_run_batch", "pb.kernels.schedule_batch", _block_attrs)
    _wrap(ev, "combined_run_batch", "pb.kernels.combined_batch", _block_attrs)
    for name in ("simulate_battery", "schedule_carbon_aware", "simulate_combined"):
        _wrap(ev, name, "pb.kernels.per_design", _per_design_attrs)
    _wrap(ev, "evaluate_design", "pb.core.evaluate.design")
    engine_module.evaluate_design = ev.evaluate_design
    _wrap(engine_module, "evaluate_block", "pb.core.evaluate.block")
    _wrap(engine_module, "share_context", "pb.core.shm.share")
    _wrap(engine_module, "wait", "pb.core.engine.wait")
    _wrap(checkpoint_module.CheckpointJournal, "append_chunk",
          "pb.resilience.checkpoint.append")
    _wrap(pareto_module, "pareto_frontier", "pb.core.pareto.frontier")
    _wrap(pareto_module, "knee_point", "pb.core.pareto.knee")
    _wrap(fleet_module, "prepare_fleet", "pb.core.engine.plan")
    _wrap(engine_module.SweepEngine, "setup", "pb.core.engine.setup")
    _wrap(engine_module.SweepEngine, "cleanup", "pb.core.engine.cleanup")

    probe = Probe()
    engine_class = engine_module.SweepEngine
    dispatch = engine_class.dispatch
    commit = engine_class._commit
    validated_payload = engine_module._validated_payload

    @functools.wraps(dispatch)
    def traced_dispatch(self):
        if not tracing_enabled():
            return dispatch(self)
        start = time.perf_counter()
        probe._awaiting_commit = True
        try:
            with span("pb.core.engine.dispatch"):
                return dispatch(self)
        finally:
            probe.dispatch_windows.append((start, time.perf_counter()))
            probe._awaiting_commit = False

    @functools.wraps(commit)
    def traced_commit(self, *args, **kwargs):
        if probe._awaiting_commit and tracing_enabled():
            probe.first_commits.append(time.perf_counter())
            probe._awaiting_commit = False
        return commit(self, *args, **kwargs)

    @functools.wraps(validated_payload)
    def measured_payload(payload, flight):
        if tracing_enabled():
            probe.result_bytes += len(pickle.dumps(payload[2]))
        return validated_payload(payload, flight)

    engine_class.dispatch = traced_dispatch
    engine_class._commit = traced_commit
    engine_module._validated_payload = measured_payload
    return probe


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


class _Node:
    __slots__ = ("name", "attrs", "start", "wall", "children", "pid")

    def __init__(self, name, attrs, start, wall, pid) -> None:
        self.name = name
        self.attrs = attrs
        self.start = start
        self.wall = wall
        self.children: List["_Node"] = []
        self.pid = pid


def _from_span(span_obj, pid: int) -> _Node:
    node = _Node(span_obj.name, span_obj.attrs, span_obj.start_wall, span_obj.wall_s, pid)
    node.children = [_from_span(child, pid) for child in span_obj.children]
    return node


def _from_records(records: Sequence[Dict[str, Any]], pid: int) -> List[_Node]:
    """Rebuild worker trees from exported records (pre-order, per thread)."""
    roots: List[_Node] = []
    stacks: Dict[int, List[_Node]] = defaultdict(list)
    for record in records:
        node = _Node(
            record["name"],
            record.get("attrs", {}),
            float(record["start_s"]) - _ABS_OFFSET,
            float(record["wall_s"]),
            pid,
        )
        stack = stacks[record["tid"]]
        while stack and node.start >= stack[-1].start + stack[-1].wall - 1e-6:
            stack.pop()
        if stack:
            stack[-1].children.append(node)
        else:
            roots.append(node)
        stack.append(node)
    return roots


def _is_layer(node: _Node) -> bool:
    return node.name.startswith(PREFIX)


def _covered(node: _Node) -> float:
    """Wall time of the nearest layer spans below ``node``."""
    total = 0.0
    for child in node.children:
        total += child.wall if _is_layer(child) else _covered(child)
    return total


class LayerStats:
    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.attrs: Dict[Tuple[str, str], float] = defaultdict(float)
        self.chunks: List[_Node] = []

    def visit(self, node: _Node) -> None:
        if _is_layer(node):
            self.calls[node.name] += 1
            self.self_s[node.name] += node.wall - _covered(node)
            rows = node.attrs.get("rows")
            if rows is not None:
                self.attrs[(node.name, "rows")] += rows
                self.attrs[(node.name, "design_hours")] += rows * node.attrs["hours"]
                self.attrs[(node.name, "seeded_rows")] += node.attrs.get(
                    "seeded_rows", 0
                )
        elif node.name == "evaluate_chunk":
            self.chunks.append(node)
        for child in node.children:
            self.visit(child)


def _find_root(roots, name: str):
    for root in reversed(roots):
        if root.name == name:
            return root
    raise RuntimeError(f"traced run recorded no {name!r} span")


def setup_metrics(roots) -> Dict[str, float]:
    """Per-build set-up layers from the latest ``pb.setup`` tree."""
    stats = LayerStats()
    stats.visit(_from_span(_find_root(roots, SETUP_ROOT), 0))
    return {
        "grid.synthetic.generate_s": stats.self_s["pb.grid.synthetic.generate"],
        "datacenter.demand.synthesize_s": stats.self_s["pb.datacenter.demand.synthesize"],
        "core.evaluate.build_site_context_s": stats.self_s[
            "pb.core.evaluate.build_site_context"
        ],
    }


def _busy_idle(chunks: Sequence[_Node], windows, pids: Sequence[int]):
    """Busy and idle seconds of each executor inside the dispatch windows."""
    busy = idle = 0.0
    for pid in pids:
        intervals = sorted(
            (c.start, c.start + c.wall) for c in chunks if c.pid == pid
        )
        for lo, hi in windows:
            cursor = lo
            for start, end in intervals:
                start, end = max(start, cursor), min(end, hi)
                if end <= start:
                    continue
                idle += start - cursor
                busy += end - start
                cursor = end
            idle += hi - cursor
    return busy, idle


def layer_metrics(
    roots, foreign, probe: Probe, workers: int, parent_pid: int
) -> Dict[str, float]:
    """Every per-layer metric of one traced sweep (except set-up ones)."""
    root = _from_span(_find_root(roots, ROOT), parent_pid)
    stats = LayerStats()
    stats.visit(root)
    for pid, records in foreign:
        for node in _from_records(records, pid):
            stats.visit(node)
    calls, self_s, attrs = stats.calls, stats.self_s, stats.attrs
    registry = get_registry()
    counter = registry.counter_value
    m: Dict[str, float] = {}

    hits, misses = counter("supply_cache_hits"), counter("supply_cache_misses")
    m["grid.scaling.project_calls"] = calls["pb.grid.scaling.project"]
    m["grid.scaling.project_s"] = self_s["pb.grid.scaling.project"]
    m["core.evaluate.supply_cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )

    for kernel in ("battery", "schedule", "combined"):
        layer = f"pb.kernels.{kernel}_batch"
        hours = attrs[(layer, "design_hours")]
        m[f"kernels.{kernel}_batch.calls"] = calls[layer]
        m[f"kernels.{kernel}_batch.self_s"] = self_s[layer]
        m[f"kernels.{kernel}_batch.design_hours"] = hours
        m[f"kernels.{kernel}_batch.ns_per_design_hour"] = (
            self_s[layer] / hours * 1e9 if hours else 0.0
        )
    rows = attrs[("pb.kernels.battery_batch", "rows")]
    m["kernels.battery_batch.seeded_row_share"] = (
        attrs[("pb.kernels.battery_batch", "seeded_rows")] / rows if rows else 0.0
    )
    m["kernels.per_design.calls"] = calls["pb.kernels.per_design"]
    m["kernels.per_design.self_s"] = self_s["pb.kernels.per_design"]
    m["kernels.per_design.design_hours"] = attrs[
        ("pb.kernels.per_design", "design_hours")
    ]

    m["core.evaluate.block_self_s"] = self_s["pb.core.evaluate.block"]
    m["core.evaluate.design_calls"] = calls["pb.core.evaluate.design"]
    m["core.evaluate.design_self_s"] = self_s["pb.core.evaluate.design"]

    windows = probe.dispatch_windows
    wall = sum(hi - lo for lo, hi in windows)
    chunk_walls = sorted(c.wall for c in stats.chunks)
    pids = sorted({c.pid for c in stats.chunks})
    busy, idle = _busy_idle(stats.chunks, windows, pids)
    m["core.engine.plan_s"] = self_s["pb.core.engine.plan"]
    m["core.engine.setup_s"] = (
        self_s["pb.core.engine.setup"] + self_s["pb.core.engine.cleanup"]
    )
    m["core.engine.dispatch_self_s"] = self_s["pb.core.engine.dispatch"]
    m["core.engine.wait_s"] = self_s["pb.core.engine.wait"]
    m["core.engine.chunks"] = len(chunk_walls)
    m["core.engine.chunk_service_p50_s"] = (
        statistics.median(chunk_walls) if chunk_walls else 0.0
    )
    m["core.engine.chunk_service_p90_s"] = (
        statistics.quantiles(chunk_walls, n=10)[8] if len(chunk_walls) > 1
        else (chunk_walls[0] if chunk_walls else 0.0)
    )
    m["core.engine.first_commit_s"] = (
        probe.first_commits[0] - windows[0][0] if probe.first_commits else 0.0
    )
    m["core.engine.worker_busy_frac"] = busy / (wall * workers) if wall else 0.0
    m["core.engine.worker_idle_s"] = idle
    m["core.engine.worker_accounted_frac"] = (
        (busy + idle) / (wall * workers) if wall else 0.0
    )
    m["core.engine.result_bytes"] = probe.result_bytes
    m["core.engine.chunk_retries"] = counter("chunk_retries")
    m["core.engine.capacity_steals"] = counter("capacity_steals")

    m["core.shm.share_s"] = self_s["pb.core.shm.share"]
    m["core.shm.bytes_shared"] = counter("shm_bytes_shared")
    m["core.shm.attach_count"] = counter("context_attach_count")

    m["resilience.checkpoint.append_calls"] = calls["pb.resilience.checkpoint.append"]
    m["resilience.checkpoint.append_s"] = self_s["pb.resilience.checkpoint.append"]

    m["core.pareto.frontier_s"] = self_s["pb.core.pareto.frontier"]
    m["core.pareto.knee_s"] = self_s["pb.core.pareto.knee"]

    m["obs.unattributed_frac"] = (root.wall - _covered(root)) / root.wall
    return m
