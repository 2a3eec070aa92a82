"""Tests for the generic parameter-sweep harness."""

import pytest

from repro.errors import ConfigError
from repro.experiments.sweeps import Sweep, best_point


class TestSweep:
    def test_cartesian_points(self):
        sweep = Sweep("s", axes={"a": [1, 2], "b": ["x", "y", "z"]})
        points = list(sweep.points())
        assert len(points) == 6
        assert {"a": 1, "b": "x"} in points
        assert {"a": 2, "b": "z"} in points

    def test_run_collects_rows(self):
        sweep = Sweep("s", axes={"n": [1, 2, 3]})
        result = sweep.run(lambda n: {"square": float(n * n)})
        assert [row.get("square") for row in result.rows] == [1.0, 4.0, 9.0]
        assert result.columns == ["n", "square"]

    def test_axis_values_rendered_as_labels(self):
        sweep = Sweep("s", axes={"ratio": [0.25]})
        result = sweep.run(lambda ratio: {"v": ratio})
        assert result.rows[0]["ratio"] == "0.25"

    def test_progress_callback(self):
        seen = []
        sweep = Sweep("s", axes={"n": [1, 2]})
        sweep.run(lambda n: {"v": n},
                  progress_fn=lambda i, total, point: seen.append((i, total)))
        assert seen == [(0, 2), (1, 2)]

    def test_table_renders(self):
        sweep = Sweep("cache-study", axes={"cache": [16, 64]})
        result = sweep.run(lambda cache: {"p999": cache * 10.0})
        table = result.to_table()
        assert "cache-study" in table and "640.0" in table

    def test_metric_axis_collision_rejected(self):
        sweep = Sweep("s", axes={"n": [1]})
        with pytest.raises(ConfigError):
            sweep.run(lambda n: {"n": 1.0})

    def test_non_mapping_result_rejected(self):
        sweep = Sweep("s", axes={"n": [1]})
        with pytest.raises(ConfigError):
            sweep.run(lambda n: 42)

    def test_validation(self):
        with pytest.raises(ConfigError):
            Sweep("s", axes={})
        with pytest.raises(ConfigError):
            Sweep("s", axes={"a": []})


def _square_metrics(n):
    """Module-level so parallel sweep workers can pickle it."""
    return {"square": float(n * n)}


class TestSweepDedupAndParallel:
    def test_single_axis_single_point(self):
        sweep = Sweep("s", axes={"n": [7]})
        result = sweep.run(_square_metrics)
        assert result.rows == [{"n": "7", "square": 49.0}]

    def test_duplicate_points_run_once(self):
        calls = []

        def run_fn(n):
            calls.append(n)
            return {"v": float(n)}

        sweep = Sweep("s", axes={"n": [1, 2, 1, 1]})
        result = sweep.run(run_fn)
        assert calls == [1, 2]  # deduped execution...
        assert [row.get("v") for row in result.rows] == [1.0, 2.0, 1.0, 1.0]  # ...full rows

    def test_progress_reports_unique_points(self):
        seen = []
        sweep = Sweep("s", axes={"n": [3, 3, 4]})
        sweep.run(lambda n: {"v": n},
                  progress_fn=lambda i, total, point: seen.append((i, total)))
        assert seen == [(0, 2), (1, 2)]

    def test_parallel_matches_serial(self):
        sweep = Sweep("s", axes={"n": [1, 2, 3, 4]})
        serial = sweep.run(_square_metrics, jobs=1)
        fanned = sweep.run(_square_metrics, jobs=2)
        assert serial.rows == fanned.rows

    def test_parallel_with_unpicklable_fn_degrades(self):
        sweep = Sweep("s", axes={"n": [1, 2]})
        result = sweep.run(lambda n: {"v": float(n)}, jobs=4)
        assert [row.get("v") for row in result.rows] == [1.0, 2.0]

    def test_explicit_runner(self):
        from repro.experiments.parallel import ParallelRunner

        sweep = Sweep("s", axes={"n": [2, 3]})
        result = sweep.run(_square_metrics, runner=ParallelRunner(jobs=2))
        assert [row.get("square") for row in result.rows] == [4.0, 9.0]


class TestBestPoint:
    def test_minimize(self):
        sweep = Sweep("s", axes={"n": [1, 2, 3]})
        result = sweep.run(lambda n: {"cost": float((n - 2) ** 2)})
        row, value = best_point(result, "cost")
        assert row["n"] == "2" and value == 0.0

    def test_maximize(self):
        sweep = Sweep("s", axes={"n": [1, 2, 3]})
        result = sweep.run(lambda n: {"gain": float(n)})
        row, value = best_point(result, "gain", minimize=False)
        assert row["n"] == "3" and value == 3.0

    def test_no_numeric_values(self):
        sweep = Sweep("s", axes={"n": [1]})
        result = sweep.run(lambda n: {"v": None})
        with pytest.raises(ConfigError):
            best_point(result, "v")


class TestSweepWithWearSim:
    def test_end_to_end_with_real_run_fn(self):
        from repro.wear import WearSimulation

        sweep = Sweep(
            "wear-policy", axes={"local": [False, True]},
            title="local balancer on/off",
        )

        def run_fn(local):
            sim = WearSimulation(num_servers=2, ssds_per_server=4,
                                 enable_local=local, enable_global=False,
                                 replacement_rate_per_year=0.0, seed=4)
            result = sim.run(days=365, sample_every=90)
            return {"mean_lambda": result.mean_final_server_imbalance()}

        result = sweep.run(run_fn)
        by_label = {row["local"]: row["mean_lambda"] for row in result.rows}
        assert by_label["True"] <= by_label["False"]
