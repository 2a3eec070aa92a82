"""Tests for the figure regression differ."""

import pytest

from repro.errors import ConfigError
from repro.experiments.figures import FigureResult
from repro.experiments.regression import compare_figures, compare_runs


def figure(rows, name="Figure 9"):
    return FigureResult(figure=name, title="t", columns=list(rows[0]), rows=rows)


class TestCompareFigures:
    def test_identical_runs_are_clean(self):
        a = figure([{"label": "20%", "p999": 100.0}])
        report = compare_figures(a, a)
        assert report.clean
        assert report.values_compared == 1

    def test_drift_detected(self):
        base = figure([{"label": "20%", "p999": 100.0}])
        cand = figure([{"label": "20%", "p999": 200.0}])
        report = compare_figures(base, cand, tolerance=0.25)
        assert not report.clean
        assert report.drifts[0].ratio == 2.0
        assert "2.00x" in report.describe()

    def test_within_tolerance_passes(self):
        base = figure([{"label": "x", "v": 100.0}])
        cand = figure([{"label": "x", "v": 110.0}])
        assert compare_figures(base, cand, tolerance=0.25).clean

    def test_missing_row_reported(self):
        base = figure([{"label": "a", "v": 1.0}, {"label": "b", "v": 2.0}])
        cand = figure([{"label": "a", "v": 1.0}])
        report = compare_figures(base, cand)
        assert report.missing_rows == [("Figure 9", "b")]

    def test_none_values_skipped(self):
        base = figure([{"label": "a", "v": None}])
        cand = figure([{"label": "a", "v": 5.0}])
        report = compare_figures(base, cand)
        assert report.values_compared == 0

    def test_nan_candidate_drifts(self):
        base = figure([{"sys": "a", "p99": 100.0}])
        cand = figure([{"sys": "a", "p99": float("nan")}])
        report = compare_figures(base, cand)
        assert not report.clean
        assert report.values_compared == 1
        assert report.drifts[0].column == "p99"

    @pytest.mark.parametrize("row", [
        {"sys": "a"},
        {"sys": "a", "p99": None},
        {"sys": "a", "p99": True},
    ], ids=["missing", "none", "bool"])
    def test_vanished_candidate_value_drifts(self, row):
        base = figure([{"sys": "a", "p99": 100.0}])
        report = compare_figures(base, figure([row]))
        assert not report.clean
        assert report.values_compared == 1
        drift = report.drifts[0]
        assert drift.candidate is None
        assert "p99: 100.0 -> missing" in report.describe()

    def test_nan_on_both_sides_is_equal(self):
        a = figure([{"sys": "a", "p99": float("nan")}])
        b = figure([{"sys": "a", "p99": float("nan")}])
        report = compare_figures(a, b)
        assert report.clean
        assert report.values_compared == 1

    def test_nan_baseline_vs_number_drifts(self):
        base = figure([{"sys": "a", "p99": float("nan")}])
        cand = figure([{"sys": "a", "p99": 100.0}])
        assert not compare_figures(base, cand).clean

    def test_zero_baseline_vs_nonzero_flags(self):
        base = figure([{"label": "a", "v": 0.0}])
        cand = figure([{"label": "a", "v": 5.0}])
        assert not compare_figures(base, cand).clean

    def test_rows_matched_by_labels_not_order(self):
        base = figure([{"label": "a", "v": 1.0}, {"label": "b", "v": 2.0}])
        cand = figure([{"label": "b", "v": 2.0}, {"label": "a", "v": 1.0}])
        assert compare_figures(base, cand).clean

    def test_tolerance_validated(self):
        a = figure([{"label": "x", "v": 1.0}])
        with pytest.raises(ConfigError):
            compare_figures(a, a, tolerance=0.0)


class TestCompareRuns:
    def test_missing_figure_reported(self):
        base = {"fig9": figure([{"label": "a", "v": 1.0}])}
        report = compare_runs(base, {})
        assert report.missing_figures == ["fig9"]
        assert not report.clean

    def test_multi_figure_merge(self):
        base = {
            "fig9": figure([{"label": "a", "v": 1.0}]),
            "fig10": figure([{"label": "a", "v": 10.0}], name="Figure 10"),
        }
        cand = {
            "fig9": figure([{"label": "a", "v": 1.0}]),
            "fig10": figure([{"label": "a", "v": 30.0}], name="Figure 10"),
        }
        report = compare_runs(base, cand)
        assert len(report.drifts) == 1
        assert report.drifts[0].figure == "Figure 10"

    def test_roundtrip_through_disk(self, tmp_path):
        from repro.experiments.results_io import load_figures, save_figures

        run = {"fig9": figure([{"label": "a", "v": 1.0}])}
        save_figures(run, str(tmp_path / "base"))
        save_figures(run, str(tmp_path / "cand"))
        report = compare_runs(
            load_figures(str(tmp_path / "base")),
            load_figures(str(tmp_path / "cand")),
        )
        assert report.clean
