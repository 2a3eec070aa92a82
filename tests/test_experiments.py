"""Tests for the experiment runner, figure plumbing, and report."""

import io

import pytest

from repro.cluster import RackConfig, SystemType
from repro.errors import SimulationError
from repro.experiments import ALL_FIGURES, run_rack_experiment
from repro.experiments.figures import (
    FigureResult,
    clear_cache,
    fig22_local_wear,
    predictor_accuracy,
)
from repro.experiments.report import run_figures
from repro.experiments.runner import run_until
from repro.sim import Event, Simulator
from repro.workloads import ycsb


class TestRunUntil:
    def test_returns_when_event_fires(self):
        sim = Simulator()
        event = Event(sim)
        sim.schedule_after(1000.0, lambda: event.succeed())
        run_until(sim, event, chunk_us=100.0)
        assert event.triggered

    def test_raises_when_never_converging(self):
        sim = Simulator()

        def forever():
            from repro.sim import Timeout

            while True:
                yield Timeout(sim, 50.0)

        sim.spawn(forever())
        with pytest.raises(SimulationError):
            run_until(sim, Event(sim), chunk_us=1000.0, max_sim_us=10_000.0)


class TestRackResult:
    def test_summary_includes_rack_stats(self):
        config = RackConfig(system=SystemType.RACKBLOX, num_servers=3,
                            num_pairs=3, seed=5)
        result = run_rack_experiment(config, ycsb(0.5), requests_per_pair=200)
        summary = result.summary()
        assert "redirects" in summary and "gc_runs" in summary
        assert summary["read_count"] > 0

    def test_sim_duration_recorded(self):
        config = RackConfig(system=SystemType.VDC, num_servers=3, num_pairs=3,
                            seed=5)
        result = run_rack_experiment(config, ycsb(0.5), requests_per_pair=200)
        assert result.sim_duration_us > 0


class TestFigureResult:
    def _sample(self):
        return FigureResult(
            figure="Figure X", title="demo",
            columns=["a", "b"],
            rows=[{"a": "x", "b": 1.25}, {"a": "longer", "b": None}],
            notes="a note",
        )

    def test_table_rendering(self):
        table = self._sample().to_table()
        assert "Figure X: demo" in table
        assert "1.2" in table  # float formatting
        assert "-" in table    # None placeholder
        assert "note: a note" in table

    def test_series_extraction(self):
        result = self._sample()
        assert [row.get("b") for row in result.rows] == [1.25, None]

    def test_all_figures_registry_complete(self):
        expected = {f"fig{n}" for n in range(9, 24)} | {"predictor"}
        assert set(ALL_FIGURES) == expected


class TestFigureFunctions:
    def test_fig22_structure(self):
        result = fig22_local_wear(num_servers=2, ssds_per_server=4, days=120)
        policies = [row["policy"] for row in result.rows]
        assert policies == ["No Swap", "RackBlox (local)"]

    def test_predictor_accuracy_structure(self):
        result = predictor_accuracy(networks=("fast",), samples=1000)
        assert len(result.rows) == 1
        assert result.rows[0]["samples"] > 0

    def test_cache_cleared(self):
        clear_cache()
        from repro.experiments.figures import _run_cache

        assert _run_cache == {}

    def test_run_figures_unknown_name(self):
        with pytest.raises(KeyError):
            run_figures(["fig99"], stream=io.StringIO())

    def test_run_figures_renders_to_stream(self):
        stream = io.StringIO()
        results = run_figures(["fig22"], quick=True, stream=stream)
        assert "Figure 22" in stream.getvalue()
        assert "fig22" in results
