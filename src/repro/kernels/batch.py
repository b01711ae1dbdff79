"""The block API: the per-design kernels over a block of designs.

Sweeps evaluate designs in blocks.  ``supply`` is a ``(D, H)`` block, one
row per design's solar/wind mix; ``demand`` (and, for CAS, the grid
intensity and the hour-of-day FWR profile) is shared by every row; every
per-design scalar (battery capacity, DoD floor, datacenter capacity,
flexible ratio) is a ``(D,)`` column, and scalars broadcast.  Each
function returns exactly the fields
:func:`repro.core.evaluate.evaluate_block` reads.

Two backends run behind the same functions:

* **native** — the row loops of ``native.c``, which :mod:`repro.native`
  compiles, loads and installs here (:func:`use_native`);
* **python** — the per-design kernels (:mod:`.battery`, :mod:`.greedy`,
  :mod:`.combined`) mapped over the rows, when no library is installed.

Both are bitwise identical to mapping the per-design kernel over the
rows (``tests/kernels/test_batch.py`` checks the native loops against
that oracle).  Kernel purity holds as for the per-design kernels: inputs
are read-only, every output is freshly allocated here, and there is no
I/O.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .battery import battery_run
from .combined import combined_run
from .greedy import schedule_run

_HOURS_PER_DAY = 24

#: The loaded ``native.c`` library, or ``None`` for the Python kernels.
_native = None


def use_native(library) -> None:
    """Run the block API on ``library`` (``None``: the Python kernels)."""
    global _native
    _native = library


def native_active() -> bool:
    """Whether the block API runs the compiled row loops."""
    return _native is not None


class BatteryRunBatch(NamedTuple):
    """Row-stacked :func:`~repro.kernels.battery.battery_run` outcome."""

    grid_import: np.ndarray
    surplus: np.ndarray
    discharged_mwh: np.ndarray


class ScheduleRunBatch(NamedTuple):
    """Row-stacked :func:`~repro.kernels.greedy.schedule_run` outcome."""

    shifted: np.ndarray
    moved_mwh: np.ndarray


class CombinedRunBatch(NamedTuple):
    """Row-stacked :func:`~repro.kernels.combined.combined_run` outcome."""

    grid_import: np.ndarray
    surplus: np.ndarray
    deferred_mwh: np.ndarray
    discharged_mwh: np.ndarray
    deferral_events: np.ndarray


def _block(demand, supply):
    """Contiguous float64 ``(H,)`` demand and ``(D, H)`` supply."""
    supply = np.ascontiguousarray(supply, dtype=np.float64)
    demand = np.ascontiguousarray(demand, dtype=np.float64)
    if supply.ndim != 2 or demand.shape != supply.shape[1:]:
        raise ValueError(
            f"supply {supply.shape} must be (D, H) with demand {demand.shape} = (H,)"
        )
    return demand, supply


def _column(value, n_rows: int) -> np.ndarray:
    """A per-design parameter as a contiguous ``(n_rows,)`` float64 column."""
    return np.ascontiguousarray(
        np.broadcast_to(np.asarray(value, dtype=np.float64), (n_rows,))
    )


_BATTERY_KEYS = (
    "capacity_mwh",
    "floor_mwh",
    "max_charge_mw",
    "max_discharge_mw",
    "charge_efficiency",
    "discharge_efficiency",
    "initial_energy_mwh",
)


def _battery_columns(n_rows: int, *values) -> dict:
    """The battery constants as ``(n_rows,)`` columns, in ``native.c`` order."""
    return {key: _column(v, n_rows) for key, v in zip(_BATTERY_KEYS, values)}


def _row_kwargs(columns, row: int) -> dict:
    return {key: float(column[row]) for key, column in columns.items()}


def battery_run_batch(
    demand: np.ndarray,
    supply: np.ndarray,
    *,
    capacity_mwh,
    floor_mwh,
    max_charge_mw,
    max_discharge_mw,
    charge_efficiency,
    discharge_efficiency,
    initial_energy_mwh,
) -> BatteryRunBatch:
    """:func:`~repro.kernels.battery.battery_run` for every row of ``supply``."""
    demand, supply = _block(demand, supply)
    n_rows, n_hours = supply.shape
    columns = _battery_columns(
        n_rows, capacity_mwh, floor_mwh, max_charge_mw, max_discharge_mw,
        charge_efficiency, discharge_efficiency, initial_energy_mwh,
    )
    grid = np.empty((n_rows, n_hours))
    surplus = np.empty((n_rows, n_hours))
    discharged = np.empty(n_rows)
    if _native is None:
        for row in range(n_rows):
            run = battery_run(demand, supply[row], **_row_kwargs(columns, row))
            grid[row] = run.grid_import
            surplus[row] = run.surplus
            discharged[row] = run.discharged_mwh
    else:
        _native.battery_rows(
            n_rows, n_hours, demand.ctypes.data, supply.ctypes.data,
            *(column.ctypes.data for column in columns.values()),
            grid.ctypes.data, surplus.ctypes.data, discharged.ctypes.data,
        )
    return BatteryRunBatch(grid, surplus, discharged)


def schedule_run_batch(
    demand: np.ndarray,
    supply: np.ndarray,
    intensity: np.ndarray,
    capacity_mw,
    ratio_profile: np.ndarray,
) -> ScheduleRunBatch:
    """:func:`~repro.kernels.greedy.schedule_run` for every row of ``supply``.

    ``intensity`` and the 24-value ``ratio_profile`` are shared by the
    rows, so the per-day hour orderings are argsorted once per block,
    exactly as the per-design kernel argsorts them.
    """
    demand, supply = _block(demand, supply)
    n_rows, n_hours = supply.shape
    capacity = _column(capacity_mw, n_rows)
    shifted = np.empty((n_rows, n_hours))
    moved = np.zeros(n_rows)
    if _native is None:
        for row in range(n_rows):
            shifted[row], moved[row] = schedule_run(
                demand, supply[row], intensity, float(capacity[row]), ratio_profile
            )
        return ScheduleRunBatch(shifted, moved)
    if float(ratio_profile.max()) <= 0.0:
        shifted[:] = demand
        return ScheduleRunBatch(shifted, moved)

    n_days = n_hours // _HOURS_PER_DAY
    demand_days = demand.reshape(n_days, _HOURS_PER_DAY)
    intensity_days = np.ascontiguousarray(intensity, dtype=np.float64).reshape(
        n_days, _HOURS_PER_DAY
    )
    movable = np.ascontiguousarray(demand_days * ratio_profile, dtype=np.float64)
    source_orders = np.ascontiguousarray(
        np.argsort(-intensity_days, axis=1, kind="stable"), dtype=np.int64
    )
    dest_orders = np.ascontiguousarray(
        np.argsort(intensity_days, axis=1, kind="stable"), dtype=np.int64
    )
    _native.schedule_rows(
        n_rows, n_days, demand.ctypes.data, supply.ctypes.data,
        intensity_days.ctypes.data, capacity.ctypes.data, movable.ctypes.data,
        source_orders.ctypes.data, dest_orders.ctypes.data,
        shifted.ctypes.data, moved.ctypes.data,
    )
    return ScheduleRunBatch(shifted, moved)


def combined_run_batch(
    demand: np.ndarray,
    supply: np.ndarray,
    *,
    capacity_mwh,
    floor_mwh,
    max_charge_mw,
    max_discharge_mw,
    charge_efficiency,
    discharge_efficiency,
    initial_energy_mwh,
    capacity_mw,
    flexible_ratio,
    deadline_hours: int,
) -> CombinedRunBatch:
    """:func:`~repro.kernels.combined.combined_run` for every row of ``supply``.

    Rows with a zero flexible ratio take the per-design kernel's
    delegations to the battery (or renewables-only) kernel.
    """
    deadline = int(deadline_hours)
    if deadline < 1:
        raise ValueError("deadline_hours must be >= 1")
    demand, supply = _block(demand, supply)
    n_rows, n_hours = supply.shape
    columns = _battery_columns(
        n_rows, capacity_mwh, floor_mwh, max_charge_mw, max_discharge_mw,
        charge_efficiency, discharge_efficiency, initial_energy_mwh,
    )
    columns["capacity_mw"] = _column(capacity_mw, n_rows)
    columns["flexible_ratio"] = _column(flexible_ratio, n_rows)
    grid = np.empty((n_rows, n_hours))
    surplus = np.empty((n_rows, n_hours))
    deferred = np.empty(n_rows)
    discharged = np.empty(n_rows)
    events = np.empty(n_rows, dtype=np.int64)
    if _native is None:
        for row in range(n_rows):
            run = combined_run(
                demand, supply[row], deadline_hours=deadline,
                **_row_kwargs(columns, row),
            )
            grid[row] = run.grid_import
            surplus[row] = run.surplus
            deferred[row] = run.deferred_mwh
            discharged[row] = run.discharged_mwh
            events[row] = run.deferral_events
    else:
        status = _native.combined_rows(
            n_rows, n_hours, demand.ctypes.data, supply.ctypes.data,
            *(column.ctypes.data for column in columns.values()),
            deadline, grid.ctypes.data, surplus.ctypes.data,
            deferred.ctypes.data, discharged.ctypes.data, events.ctypes.data,
        )
        if status != 0:
            raise MemoryError("combined_rows could not allocate its queue")
    return CombinedRunBatch(grid, surplus, deferred, discharged, events)
