"""Native-vs-oracle tests: the compiled block API equals the Python loops.

The contract of :mod:`repro.kernels.batch` is *bitwise* equivalence: for
any block of designs, row ``i`` of a block result must equal running the
per-design Python kernel on row ``i`` alone, to the last bit.  Every
comparison here is on the raw bytes (``-0.0`` and ``+0.0`` differ, and so
do NaN payloads); :mod:`tests.kernels.test_equivalence` ties the Python
kernels to the original object loops, so these tests transitively pin
the compiled loops of ``native.c`` to the pre-kernel semantics.

Every test runs with the native backend installed (the module skips when
no C compiler is available; CI asserts that its image has one).  Covered
edges: signed zeros, exact ties in intensity, NaN in supply and
intensity, zero flexible ratio and zero battery capacity, 1-hour traces,
epsilon-scale queue entries, and a backlog of thousands of deferrals.
(Sweeps never pass NaN — :class:`~repro.timeseries.HourlySeries` rejects
it — so the NaN cases hold the block API to the oracle for direct
callers.)
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.battery import LFP, BatterySpec
from repro.kernels import (
    battery_run,
    battery_run_batch,
    combined_run,
    combined_run_batch,
    renewables_only_run,
    schedule_run,
    schedule_run_batch,
)
from repro.timeseries import HOURS_PER_DAY


@pytest.fixture(autouse=True, scope="module")
def native_backend():
    if native.load() is None:
        pytest.skip("the native kernels could not be built here")


#: A chemistry whose C-rate limits almost never bind (the high-C-rate edge).
HIGH_C_RATE = dataclasses.replace(
    LFP, name="high-c-rate", max_charge_c_rate=25.0, max_discharge_c_rate=25.0
)

#: Two days: enough for a 24 h deadline to pass and for overdue work to
#: be carried across a day boundary.
N_HOURS = 2 * HOURS_PER_DAY

#: Edge-heavy spec pool: no battery (the renewables-only delegation), a
#: tiny battery whose limits bind everywhere, mid/large packs, a DoD
#: floor, and an unbinding C-rate.
SPEC_POOL = [
    BatterySpec(0.0),
    BatterySpec(0.001),
    BatterySpec(5.0),
    BatterySpec(40.0),
    BatterySpec(40.0, depth_of_discharge=0.8),
    BatterySpec(5.0, chemistry=HIGH_C_RATE),
]

#: Per-row (spec, initial soc, flexible ratio, capacity multiple) tuples;
#: the list length is the block's design axis D.
ROWS = st.lists(
    st.tuples(
        st.sampled_from(SPEC_POOL),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from([0.0, 0.25, 1.0]),
        st.sampled_from([1.2, 1.5, 3.0]),
    ),
    min_size=1,
    max_size=4,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

#: Hour values that sit on the branch and epsilon boundaries of the loops.
EDGE_VALUES = [-0.0, 0.0, 5e-10, 1e-9, 2e-9, 1.0, 1.0 + 1e-9, 7.0]


def make_traces(seed, n_rows, n_hours=N_HOURS, edges=False):
    """Deterministic shared demand and a per-row supply block.

    With ``edges``, about a third of the hours are replaced by boundary
    values: signed zeros, epsilon-scale amounts and exact ``supply ==
    demand`` hours.
    """
    rng = np.random.default_rng(seed)
    demand = rng.uniform(0.0, 20.0, n_hours)
    supply = rng.uniform(0.0, 40.0, (n_rows, n_hours))
    if edges:
        pool = np.array(EDGE_VALUES)
        hours = rng.random(n_hours) < 0.3
        demand[hours] = rng.choice(pool, int(hours.sum()))
        for row in supply:
            picks = rng.random(n_hours) < 0.3
            row[picks] = rng.choice(pool, int(picks.sum()))
            equal = rng.random(n_hours) < 0.1
            row[equal] = demand[equal]
    return demand, supply


def battery_kwargs(spec, soc):
    """The serial wrappers' hoisted per-design scalar constants."""
    floor = spec.floor_mwh
    return dict(
        capacity_mwh=spec.capacity_mwh,
        floor_mwh=floor,
        max_charge_mw=spec.max_charge_mw,
        max_discharge_mw=spec.max_discharge_mw,
        charge_efficiency=spec.chemistry.charge_efficiency,
        discharge_efficiency=spec.chemistry.discharge_efficiency,
        initial_energy_mwh=floor + soc * (spec.capacity_mwh - floor),
    )


def columns(rows_kwargs):
    """Per-row keyword dicts stacked into the block API's (D,) columns."""
    return {key: np.array([kw[key] for kw in rows_kwargs]) for key in rows_kwargs[0]}


def assert_bits(actual, expected):
    """Bitwise equality of float arrays or scalars (``-0.0 != 0.0``)."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    if actual.tobytes() != expected.tobytes():
        differ = np.flatnonzero(
            actual.reshape(-1).view(np.int64) != expected.reshape(-1).view(np.int64)
        )
        first = differ[0]
        raise AssertionError(
            f"{differ.size} values differ; first at {first}: "
            f"{actual.reshape(-1)[first]!r} != {expected.reshape(-1)[first]!r}"
        )


def check_battery(demand, supply, rows_kwargs):
    """Block run vs the per-design kernel on every row."""
    block = battery_run_batch(demand, supply, **columns(rows_kwargs))
    for i, kwargs in enumerate(rows_kwargs):
        ref = battery_run(demand, supply[i], **kwargs)
        assert_bits(block.grid_import[i], ref.grid_import)
        assert_bits(block.surplus[i], ref.surplus)
        assert_bits(block.discharged_mwh[i], ref.discharged_mwh)


def check_schedule(demand, supply, intensity, capacity, profile):
    block = schedule_run_batch(demand, supply, intensity, capacity, profile)
    for i, cap in enumerate(capacity):
        ref_shifted, ref_moved = schedule_run(
            demand, supply[i], intensity, float(cap), profile
        )
        assert_bits(block.shifted[i], ref_shifted)
        assert_bits(block.moved_mwh[i], ref_moved)


def check_combined(demand, supply, rows_kwargs, deadline_hours):
    """``rows_kwargs`` hold battery constants plus capacity_mw/flexible_ratio."""
    block = combined_run_batch(
        demand, supply, deadline_hours=deadline_hours, **columns(rows_kwargs)
    )
    refs = []
    for i, kwargs in enumerate(rows_kwargs):
        ref = combined_run(
            demand, supply[i], deadline_hours=deadline_hours, **kwargs
        )
        assert_bits(block.grid_import[i], ref.grid_import)
        assert_bits(block.surplus[i], ref.surplus)
        assert_bits(block.deferred_mwh[i], ref.deferred_mwh)
        assert_bits(block.discharged_mwh[i], ref.discharged_mwh)
        assert block.deferral_events[i] == ref.deferral_events
        refs.append(ref)
    return refs


def combined_rows(rows, demand):
    return [
        dict(
            battery_kwargs(spec, soc),
            capacity_mw=float(demand.max()) * cap + 1.0,
            flexible_ratio=ratio,
        )
        for spec, soc, ratio, cap in rows
    ]


def test_native_backend_is_installed():
    from repro.kernels import batch

    assert batch.native_active()


# ---------------------------------------------------------------------------
# Battery kernel
# ---------------------------------------------------------------------------
class TestBatteryBatch:
    @settings(deadline=None, max_examples=60)
    @given(rows=ROWS, seed=SEEDS, edges=st.booleans())
    def test_rows_bitwise_equal_serial_kernel(self, rows, seed, edges):
        demand, supply = make_traces(seed, len(rows), edges=edges)
        check_battery(
            demand, supply, [battery_kwargs(spec, soc) for spec, soc, _, _ in rows]
        )

    @pytest.mark.parametrize("dod", [1.0, 0.8])
    @pytest.mark.parametrize("soc", [0.0, 0.5, 1.0])
    def test_rail_saturated_block(self, dod, soc):
        """Supply dwarfs demand for half the horizon (every pack rides the
        full rail), then drops to 0 (every pack drains to the floor rail)."""
        demand = np.full(N_HOURS, 10.0)
        trace = np.where(np.arange(N_HOURS) < N_HOURS // 2, 100.0, 0.0)
        specs = [dataclasses.replace(s, depth_of_discharge=dod) for s in SPEC_POOL]
        supply = np.tile(trace, (len(specs), 1))
        check_battery(demand, supply, [battery_kwargs(s, soc) for s in specs])

    def test_single_row_block(self):
        demand, supply = make_traces(7, 1)
        kwargs = battery_kwargs(BatterySpec(5.0), 0.5)
        block = battery_run_batch(demand, supply, **kwargs)
        assert block.grid_import.shape == (1, N_HOURS)
        check_battery(demand, supply, [kwargs])

    def test_zero_capacity_rows_reduce_to_renewables_only(self):
        """An all-zero-capacity block must reproduce renewables_only_run
        even with a nonsense floor/initial energy (the serial
        short-circuit ignores both)."""
        demand, supply = make_traces(11, 3, edges=True)
        block = battery_run_batch(
            demand,
            supply,
            capacity_mwh=0.0,
            floor_mwh=2.0,
            max_charge_mw=5.0,
            max_discharge_mw=5.0,
            charge_efficiency=0.95,
            discharge_efficiency=0.95,
            initial_energy_mwh=3.0,
        )
        for i in range(3):
            grid_import, surplus = renewables_only_run(demand, supply[i])
            assert_bits(block.grid_import[i], grid_import)
            assert_bits(block.surplus[i], surplus)
        assert_bits(block.discharged_mwh, np.zeros(3))

    def test_signed_zero_hours(self):
        """``-0.0`` demand/supply hours: the gap is ``+0.0`` or ``-0.0``
        and numpy's maximum (the zero-capacity rows) returns ``+0.0`` for
        ``maximum(-0.0, 0.0)``."""
        demand = np.array([-0.0, 0.0, -0.0, 0.0, 3.0, -0.0])
        supply = np.array([[0.0, -0.0, -0.0, 0.0, -0.0, 2.0]] * 3)
        rows = [battery_kwargs(spec, 0.5) for spec in SPEC_POOL[:3]]
        check_battery(demand, supply, rows)

    def test_nan_supply_matches_oracle(self):
        demand, supply = make_traces(5, 3)
        supply[0, 3] = np.nan
        supply[1, :] = np.nan
        supply[2, 10:12] = np.nan
        rows = [battery_kwargs(spec, 1.0) for spec in SPEC_POOL[:3]]
        check_battery(demand, supply, rows)

    def test_one_hour_trace(self):
        for demand, supply in ((5.0, 3.0), (3.0, 5.0), (4.0, 4.0)):
            check_battery(
                np.array([demand]),
                np.array([[supply]] * 2),
                [battery_kwargs(BatterySpec(0.0), 1.0),
                 battery_kwargs(BatterySpec(5.0), 0.5)],
            )


# ---------------------------------------------------------------------------
# Greedy CAS kernel
# ---------------------------------------------------------------------------
class TestScheduleBatch:
    @settings(deadline=None, max_examples=60)
    @given(
        caps=st.lists(st.sampled_from([1.0, 1.5, 3.0]), min_size=1, max_size=4),
        seed=SEEDS,
        ratio=st.sampled_from([0.0, 0.15, 0.4, 1.0]),
        edges=st.booleans(),
    )
    def test_rows_bitwise_equal_serial_kernel(self, caps, seed, ratio, edges):
        demand, supply = make_traces(seed, len(caps), edges=edges)
        rng = np.random.default_rng(seed + 1)
        intensity = rng.uniform(0.0, 900.0, N_HOURS)
        capacity = np.array([float(demand.max()) * c for c in caps])
        check_schedule(
            demand, supply, intensity, capacity, np.full(HOURS_PER_DAY, ratio)
        )

    @settings(deadline=None, max_examples=30)
    @given(
        caps=st.lists(st.sampled_from([1.0, 1.5, 3.0]), min_size=1, max_size=3),
        seed=SEEDS,
        profile=st.lists(
            st.floats(0.0, 1.0, allow_nan=False),
            min_size=HOURS_PER_DAY,
            max_size=HOURS_PER_DAY,
        ).map(np.array),
    )
    def test_hour_of_day_profiles_match(self, caps, seed, profile):
        demand, supply = make_traces(seed, len(caps))
        rng = np.random.default_rng(seed + 1)
        intensity = rng.uniform(0.0, 900.0, N_HOURS)
        capacity = np.array([float(demand.max()) * c for c in caps])
        check_schedule(demand, supply, intensity, capacity, profile)

    def test_zero_profile_short_circuit(self):
        demand, supply = make_traces(5, 2)
        intensity = np.linspace(100.0, 900.0, N_HOURS)
        block = schedule_run_batch(
            demand, supply, intensity, np.array([30.0, 60.0]),
            np.zeros(HOURS_PER_DAY),
        )
        assert_bits(block.shifted, np.tile(demand, (2, 1)))
        assert_bits(block.moved_mwh, np.zeros(2))

    def test_tied_intensities_break_identically(self):
        """Constant intensity forces every comparison through the
        tie-break; the native loop must follow the stable serial order."""
        demand = np.full(N_HOURS, 10.0)
        demand[::3] = 18.0
        supply = np.tile(np.full(N_HOURS, 12.0), (2, 1))
        supply[1] *= 1.5
        profile = np.full(HOURS_PER_DAY, 0.5)
        check_schedule(
            demand, supply, np.full(N_HOURS, 500.0), np.array([30.0, 25.0]), profile
        )

    @settings(deadline=None, max_examples=30)
    @given(seed=SEEDS, levels=st.integers(min_value=1, max_value=4))
    def test_partly_tied_intensities(self, seed, levels):
        """A few distinct intensity levels: ties both among sources and
        among destinations, with strict inequalities in between."""
        demand, supply = make_traces(seed, 3)
        rng = np.random.default_rng(seed + 2)
        intensity = rng.integers(0, levels, N_HOURS).astype(float) * 100.0
        capacity = np.array([float(demand.max()) * c for c in (1.0, 1.5, 3.0)])
        check_schedule(
            demand, supply, intensity, capacity, np.full(HOURS_PER_DAY, 0.6)
        )

    def test_nan_in_supply_and_intensity(self):
        demand, supply = make_traces(21, 3)
        rng = np.random.default_rng(22)
        intensity = rng.uniform(0.0, 900.0, N_HOURS)
        intensity[[2, 5, 30]] = np.nan
        supply[1, [4, 7, 40]] = np.nan
        capacity = np.array([float(demand.max()) * c for c in (1.0, 1.5, 3.0)])
        check_schedule(
            demand, supply, intensity, capacity, np.full(HOURS_PER_DAY, 0.5)
        )

    def test_signed_zero_hours(self):
        demand, supply = make_traces(23, 2, edges=True)
        demand[:HOURS_PER_DAY:2] = -0.0
        supply[:, 1:HOURS_PER_DAY:2] = -0.0
        intensity = np.linspace(900.0, 100.0, N_HOURS)
        capacity = np.array([float(demand.max()), float(demand.max()) * 2.0])
        check_schedule(
            demand, supply, intensity, capacity, np.full(HOURS_PER_DAY, 1.0)
        )

    def test_one_hour_trace_fails_like_the_oracle(self):
        """A trace shorter than a day cannot be split into days: both the
        block API and the oracle reject it (unless nothing is movable)."""
        demand, supply = np.array([5.0]), np.array([[3.0]])
        intensity, capacity = np.array([100.0]), np.array([10.0])
        with pytest.raises(ValueError):
            schedule_run(demand, supply[0], intensity, 10.0, np.full(24, 0.5))
        with pytest.raises(ValueError):
            schedule_run_batch(demand, supply, intensity, capacity, np.full(24, 0.5))
        check_schedule(demand, supply, intensity, capacity, np.zeros(24))


# ---------------------------------------------------------------------------
# Combined heuristic kernel
# ---------------------------------------------------------------------------
class TestCombinedBatch:
    @settings(deadline=None, max_examples=60)
    @given(
        rows=ROWS,
        seed=SEEDS,
        deadline_hours=st.sampled_from([1, 4, 24]),
        edges=st.booleans(),
    )
    def test_rows_bitwise_equal_serial_kernel(self, rows, seed, deadline_hours, edges):
        demand, supply = make_traces(seed, len(rows), edges=edges)
        check_combined(demand, supply, combined_rows(rows, demand), deadline_hours)

    @settings(deadline=None, max_examples=100)
    @given(
        seed=SEEDS,
        headroom=st.sampled_from([0.0, 5e-10, 1e-9, 2e-9, 1.0]),
        ratio=st.sampled_from([1e-9, 0.25, 1.0]),
        deadline_hours=st.sampled_from([1, 2, 4]),
    )
    def test_epsilon_scale_queue_matches_oracle(
        self, seed, headroom, ratio, deadline_hours
    ):
        """Queue entries, budgets and headroom within a few epsilons of
        the 1e-9 MWh gates: every take/pop decision is ulp-sensitive."""
        rng = np.random.default_rng(seed)
        pool = np.array([5e-10, 1e-9, 1.5e-9, 2e-9, 3e-9, 1.0, 1.0 + 1e-9])
        demand = rng.choice(pool, N_HOURS)
        supply = rng.choice(np.concatenate([pool, [0.0, -0.0]]), (3, N_HOURS))
        rows = [
            dict(
                battery_kwargs(spec, 0.0),
                capacity_mw=float(demand.max()) + headroom,
                flexible_ratio=ratio,
            )
            for spec in (BatterySpec(0.0), BatterySpec(1e-9), BatterySpec(5.0))
        ]
        check_combined(demand, supply, rows, deadline_hours)

    def test_zero_ratio_and_zero_capacity_rows(self):
        """Every (flexible ratio, capacity) corner in one block: the zero
        ratio rows take the battery / renewables-only delegations."""
        demand, supply = make_traces(31, 4, edges=True)
        rows = [
            dict(
                battery_kwargs(BatterySpec(cap), 0.5),
                capacity_mw=float(demand.max()) * 1.5,
                flexible_ratio=ratio,
            )
            for ratio in (0.0, 0.5)
            for cap in (0.0, 5.0)
        ]
        refs = check_combined(demand, supply, rows, 24)
        assert refs[0].deferral_events == refs[1].deferral_events == 0
        assert refs[2].deferral_events > 0

    def test_single_starved_row_exercises_overdue_matrix(self):
        """One undersupplied row defers every hour and carries overdue work
        past its deadline through the FIFO (late work)."""
        rng = np.random.default_rng(99)
        demand = rng.uniform(10.0, 20.0, N_HOURS)
        supply = rng.uniform(0.0, 4.0, (1, N_HOURS))
        rows = [
            dict(
                battery_kwargs(BatterySpec(0.001), 0.0),
                capacity_mw=float(demand.max()) + 0.5,
                flexible_ratio=1.0,
            )
        ]
        (ref,) = check_combined(demand, supply, rows, 2)
        assert ref.deferral_events > 0
        assert ref.late_mwh > 0.0

    def test_backlog_of_thousands_of_entries(self):
        """A chronically starved row whose capacity leaves almost no
        headroom: the queue grows by one entry nearly every hour."""
        n_hours = 250 * HOURS_PER_DAY
        rng = np.random.default_rng(5)
        demand = rng.uniform(9.0, 11.0, n_hours)
        supply = np.stack([rng.uniform(0.0, 2.0, n_hours), np.zeros(n_hours)])
        rows = [
            dict(
                battery_kwargs(BatterySpec(2.0), 1.0),
                capacity_mw=float(demand.max()) + 1e-3,
                flexible_ratio=1.0,
            )
        ] * 2
        refs = check_combined(demand, supply, rows, 24)
        for ref in refs:
            assert ref.deferral_events > 5000
            assert ref.unserved_mwh > 1000 * 9.0

    def test_signed_zero_hours(self):
        """A ``+0.0`` gap takes the deficit branch, where ``max(-0.0,
        0.0)`` keeps the ``-0.0`` deficit as the hour's grid import."""
        demand = np.array([0.0, -0.0, 2.0, 0.0, -0.0, 1.0] * 4)
        supply = np.array([[0.0, 0.0, 2.0, -0.0, -0.0, 3.0] * 4] * 4)
        rows = [
            dict(
                battery_kwargs(BatterySpec(cap), 0.5),
                capacity_mw=3.0,
                flexible_ratio=ratio,
            )
            for ratio in (0.0, 0.5)
            for cap in (0.0, 5.0)
        ]
        check_combined(demand, supply, rows, 2)
        block = combined_run_batch(demand, supply, deadline_hours=2, **columns(rows))
        assert np.signbit(block.grid_import[2, 0])

    def test_nan_supply_matches_oracle(self):
        demand, supply = make_traces(41, 3)
        supply[0, 5] = np.nan
        supply[1, :] = np.nan
        supply[2, 20:30] = np.nan
        rows = combined_rows(
            [(BatterySpec(5.0), 1.0, 0.5, 1.5), (BatterySpec(0.0), 1.0, 1.0, 1.2),
             (BatterySpec(5.0), 1.0, 0.0, 1.5)],
            demand,
        )
        check_combined(demand, supply, rows, 4)

    def test_one_hour_trace(self):
        rows = combined_rows(
            [(BatterySpec(0.0), 1.0, 0.0, 1.5), (BatterySpec(5.0), 0.5, 1.0, 1.5)],
            np.array([5.0]),
        )
        for supply in (3.0, 5.0, 8.0):
            check_combined(np.array([5.0]), np.array([[supply]] * 2), rows, 1)

    def test_rejects_non_positive_deadline(self):
        demand, supply = make_traces(1, 1)
        with pytest.raises(ValueError, match="deadline_hours"):
            combined_run_batch(
                demand,
                supply,
                capacity_mw=30.0,
                flexible_ratio=0.5,
                deadline_hours=0,
                **battery_kwargs(BatterySpec(5.0), 1.0),
            )
