"""Regression comparison between saved figure results.

Figures are persisted as JSON (:mod:`repro.experiments.results_io`); this
module diffs two runs -- a baseline and a candidate -- and reports every
metric that drifted beyond a relative tolerance.  Rows are matched by
their non-numeric label columns, so reordering or added rows are handled
gracefully.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.experiments.figures import FigureResult


@dataclass
class Drift:
    """One metric that moved beyond tolerance.

    ``candidate`` is ``None`` when the candidate row lost the column or
    holds something other than a number there.
    """

    figure: str
    row_key: str
    column: str
    baseline: float
    candidate: Optional[float]

    @property
    def ratio(self) -> float:
        if self.candidate is None or math.isnan(self.candidate) \
                or math.isnan(self.baseline):
            return math.inf
        if self.baseline == 0:
            return math.inf if self.candidate else 1.0
        return self.candidate / self.baseline

    def describe(self) -> str:
        if self.candidate is None:
            return (f"{self.figure} [{self.row_key}] {self.column}: "
                    f"{self.baseline:.1f} -> missing")
        return (
            f"{self.figure} [{self.row_key}] {self.column}: "
            f"{self.baseline:.1f} -> {self.candidate:.1f} "
            f"({self.ratio:.2f}x)"
        )


@dataclass
class RegressionReport:
    drifts: List[Drift] = field(default_factory=list)
    rows_compared: int = 0
    values_compared: int = 0
    missing_rows: List[Tuple[str, str]] = field(default_factory=list)
    missing_figures: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.drifts and not self.missing_rows and not self.missing_figures

    def describe(self) -> str:
        lines = [
            f"compared {self.values_compared} values across "
            f"{self.rows_compared} rows"
        ]
        for figure in self.missing_figures:
            lines.append(f"MISSING FIGURE: {figure}")
        for figure, key in self.missing_rows:
            lines.append(f"MISSING ROW: {figure} [{key}]")
        for drift in sorted(self.drifts, key=lambda d: -abs(d.ratio - 1.0)):
            lines.append("DRIFT: " + drift.describe())
        if self.clean:
            lines.append("no drift beyond tolerance")
        return "\n".join(lines)


def _row_key(row: Dict[str, object]) -> str:
    labels = [str(v) for v in row.values() if not isinstance(v, (int, float))
              and v is not None]
    return " / ".join(labels) if labels else "<unlabelled>"


def compare_figures(
    baseline: FigureResult,
    candidate: FigureResult,
    tolerance: float = 0.25,
) -> RegressionReport:
    """Diff two runs of the same figure.

    ``tolerance`` is the allowed relative change (0.25 = +-25%); latency
    tails are noisy, so the default is generous -- tighten per column by
    diffing again on a filtered result if needed.  A numeric baseline
    value whose candidate is missing, not a number, or NaN (where the
    baseline is not) drifts; NaN on both sides is equal.
    """
    if tolerance <= 0:
        raise ConfigError("tolerance must be positive")
    report = RegressionReport()
    candidate_rows = {_row_key(row): row for row in candidate.rows}
    for row in baseline.rows:
        key = _row_key(row)
        other = candidate_rows.get(key)
        if other is None:
            report.missing_rows.append((baseline.figure, key))
            continue
        report.rows_compared += 1
        for column, value in row.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            other_value = other.get(column)
            report.values_compared += 1
            if not isinstance(other_value, (int, float)) \
                    or isinstance(other_value, bool):
                other_value = None
                drifted = True
            elif math.isnan(value) or math.isnan(other_value):
                drifted = not (math.isnan(value) and math.isnan(other_value))
            elif value == 0:
                drifted = other_value != 0
            else:
                drifted = abs(other_value / value - 1.0) > tolerance
            if drifted:
                report.drifts.append(Drift(
                    figure=baseline.figure, row_key=key, column=column,
                    baseline=float(value),
                    candidate=None if other_value is None else float(other_value),
                ))
    return report


def compare_runs(
    baseline: Dict[str, FigureResult],
    candidate: Dict[str, FigureResult],
    tolerance: float = 0.25,
) -> RegressionReport:
    """Diff whole saved runs (as loaded by ``load_figures``)."""
    merged = RegressionReport()
    for name, base_figure in baseline.items():
        cand_figure = candidate.get(name)
        if cand_figure is None:
            merged.missing_figures.append(name)
            continue
        partial = compare_figures(base_figure, cand_figure, tolerance)
        merged.drifts.extend(partial.drifts)
        merged.rows_compared += partial.rows_compared
        merged.values_compared += partial.values_compared
        merged.missing_rows.extend(partial.missing_rows)
    return merged
