"""End-to-end check that the hot paths actually feed the collectors."""

import pytest

from repro.core.design import DesignSpace, Strategy
from repro.core.evaluate import evaluate_design
from repro.core.optimizer import optimize
from repro.obs import (
    enable_metrics,
    enable_tracing,
    get_tracer,
    metrics_snapshot,
    reset_metrics,
    reset_tracing,
    trace_roots,
)


@pytest.fixture()
def tiny_space() -> DesignSpace:
    """A 2-point grid with a real battery so simulate_battery runs."""
    return DesignSpace(
        solar_mw=(0.0, 30.0),
        wind_mw=(0.0,),
        battery_mwh=(60.0,),
    )


def _run_instrumented_sweep(ut_context, tiny_space):
    reset_tracing()
    reset_metrics()
    enable_tracing()
    enable_metrics()
    return optimize(ut_context, tiny_space, Strategy.RENEWABLES_BATTERY)


class TestPipelineInstrumentation:
    def test_sweep_increments_counters(self, ut_context, tiny_space):
        result = _run_instrumented_sweep(ut_context, tiny_space)
        counters = metrics_snapshot()["counters"]
        assert counters["designs_evaluated"] == result.n_evaluated
        assert counters["designs_evaluated"] > 0
        assert counters["sweeps_completed"] == 1
        assert counters["battery_sims"] >= result.n_evaluated
        assert counters["battery_sim_hours"] > 0

    def test_sweep_produces_expected_span_nesting(self, ut_context, tiny_space):
        # A battery sweep evaluates its chunks as kernel blocks.
        _run_instrumented_sweep(ut_context, tiny_space)
        (root,) = trace_roots()
        assert root.name == "optimize"
        chunk = root.find("evaluate_chunk")
        assert chunk is not None
        block = chunk.find("evaluate_block")
        assert block is not None
        assert block.attrs["n_designs"] >= 1
        # The per-design oracle nests its own simulation span.
        design = next(iter(tiny_space.points(Strategy.RENEWABLES_BATTERY)))
        evaluate_design(ut_context, design, Strategy.RENEWABLES_BATTERY)
        evaluate = trace_roots()[-1]
        assert evaluate.name == "evaluate_design"
        assert evaluate.find("simulate_battery") is not None
        # The whole chain, from the global tracer's root search too.
        assert get_tracer().find("simulate_battery") is not None

    def test_span_durations_land_in_histograms(self, ut_context, tiny_space):
        _run_instrumented_sweep(ut_context, tiny_space)
        design = next(iter(tiny_space.points(Strategy.RENEWABLES_BATTERY)))
        evaluate_design(ut_context, design, Strategy.RENEWABLES_BATTERY)
        histograms = metrics_snapshot()["histograms"]
        for name in (
            "span.optimize.seconds",
            "span.evaluate_block.seconds",
            "span.evaluate_design.seconds",
            "span.simulate_battery.seconds",
        ):
            assert histograms[name]["count"] >= 1
            assert histograms[name]["sum"] >= 0.0

    def test_progress_callback_sees_every_grid_point(self, ut_context, tiny_space):
        calls = []

        def record(done, total, label):
            calls.append((done, total, label))

        reset_tracing()
        reset_metrics()
        result = optimize(
            ut_context, tiny_space, Strategy.RENEWABLES_BATTERY, progress=record
        )
        assert [done for done, _, _ in calls] == list(
            range(1, result.n_evaluated + 1)
        )
        assert all(total == result.n_evaluated for _, total, _ in calls)
        assert all(label == Strategy.RENEWABLES_BATTERY.value for _, _, label in calls)
