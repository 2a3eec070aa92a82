"""Smoke test of the benchmark itself.

Not part of tier-1 (``bench/`` is outside ``testpaths``); run it with
``python -m pytest bench/``.  It checks that ``BENCHMARK.json`` and
``bench/metrics.py`` agree, that ``--smoke`` runs every workload to a
well-formed, correct result in well under a minute, and that the
benchmark refuses to run where there is no program to measure.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from bench import metrics, stats, workloads  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_metric_tables():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == metrics.PER_LAYER
    assert declared["paths"] == ["bench"]
    assert declared["run_seconds"] == workloads.RUN_SECONDS


def test_fast_decile_ignores_slow_windows_and_follows_a_speed_up():
    rates = [100.0] * 16 + [60.0, 70.0, 80.0, 90.0]     # four disturbed windows
    assert stats.fast_rate(rates) == pytest.approx(100.0)
    assert stats.fast_rate([r * 1.1 for r in rates]) == pytest.approx(110.0)
    costs = [1.0] * 16 + [1.5, 1.4, 1.3, 1.2]
    assert stats.fast_cost(costs) == pytest.approx(1.0)


def test_windows_keep_ops_and_cpu_per_window():
    windows = stats.Windows(1.0, start_s=10.0, start_cpu_s=2.0)
    windows.cut(11.0, 500, 2.5)
    windows.cut(12.5, 500, 2.5)         # nothing answered: no row
    windows.cut(13.5, 1500, 3.25)
    assert windows.closed == [(10.0, 1.0, 500, 0.5), (12.5, 1.0, 1000, 0.75)]
    assert stats.rates(windows.closed) == [500.0, 1000.0]
    assert stats.cpu_ms_per_op(windows.closed) == [1.0, 0.75]
    assert stats.whole_rate(windows.closed) == 750.0


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench", "run", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_smoke_run_reports_every_end_to_end_metric():
    done = _run("--smoke")
    assert done.returncode == 0, done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == len(workloads.NAMES)
    for result in results:
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] > 0
        assert list(result["metrics"]) == [m[0] for m in metrics.END_TO_END]
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_per_layer_metric():
    done = _run("--smoke", "--workload", "kv_hot", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == [m[0] for m in metrics.PER_LAYER]
    assert os.path.exists(os.path.join(
        ROOT, ".bench_out", "spans-kv_hot-seed42.jsonl"))


def test_unknown_workload_is_refused():
    assert _run("--workload", "nope").returncode == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run("--workload", "raw_qd32", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
