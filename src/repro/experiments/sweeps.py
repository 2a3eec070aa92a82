"""Generic parameter sweeps.

The figure runners are fixed sweeps; downstream users want their own
("what does the read tail do as I vary the soft threshold and cache
size?").  :class:`Sweep` expresses that in a few lines: declare axes,
point a run function at them, get a :class:`FigureResult` back -- which
then renders as a table and persists/diffs like any built-in figure.

    sweep = Sweep("cache-study", axes={
        "cache": [16, 64, 256],
        "write_ratio": [0.2, 0.8],
    })
    result = sweep.run(lambda cache, write_ratio: {
        "write_p999": run_my_rack(cache, write_ratio),
    })
"""

import itertools
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.experiments.figures import FigureResult
from repro.experiments.parallel import ParallelRunner


class Sweep:
    """A cartesian sweep over named axes."""

    def __init__(
        self,
        name: str,
        axes: Mapping[str, Sequence[object]],
        title: str = "",
    ) -> None:
        if not axes:
            raise ConfigError("a sweep needs at least one axis")
        for axis, values in axes.items():
            if not values:
                raise ConfigError(f"axis {axis!r} has no values")
        self.name = name
        self.title = title or name
        self.axes: Dict[str, List[object]] = {
            axis: list(values) for axis, values in axes.items()
        }

    def points(self) -> Iterable[Dict[str, object]]:
        """Every axis combination, in row-major order."""
        names = list(self.axes)
        for combo in itertools.product(*(self.axes[n] for n in names)):
            yield dict(zip(names, combo))

    def run(
        self,
        run_fn: Callable[..., Mapping[str, object]],
        progress_fn: Callable[[int, int, Dict[str, object]], None] = None,
        jobs: int = 1,
        runner: Optional[ParallelRunner] = None,
    ) -> FigureResult:
        """Execute ``run_fn(**point)`` at every *distinct* point.

        ``run_fn`` returns a mapping of metric name -> value; axis values
        and metrics merge into one row per point.  Duplicate points (axes
        listing the same value twice) execute once and share a result.
        ``progress_fn`` (if given) is called as ``(index, total, point)``
        before each distinct run is dispatched.

        With ``jobs > 1`` (or an explicit ``runner``) the distinct points
        fan out over a process pool -- ``run_fn`` must then be a picklable
        module-level function; anything else silently degrades to serial
        in-process execution.  Result rows are ordered and bit-identical
        either way.
        """
        if runner is None:
            runner = ParallelRunner(jobs=jobs)
        points = list(self.points())
        unique_points: List[Dict[str, object]] = []
        unique_keys: List[Tuple] = []
        seen = set()
        for point in points:
            key = _point_key(point)
            if key not in seen:
                seen.add(key)
                unique_keys.append(key)
                unique_points.append(point)
        total = len(unique_points)
        if progress_fn is not None:
            for index, point in enumerate(unique_points):
                progress_fn(index, total, point)
        outcomes = runner.starmap_kwargs(run_fn, unique_points)
        by_key = dict(zip(unique_keys, outcomes))

        rows: List[Dict[str, object]] = []
        metric_columns: List[str] = []
        for point in points:
            metrics = by_key[_point_key(point)]
            if not isinstance(metrics, Mapping):
                raise ConfigError(
                    f"run_fn must return a mapping of metrics, got "
                    f"{type(metrics).__name__}"
                )
            for key in metrics:
                if key in self.axes:
                    raise ConfigError(
                        f"metric {key!r} collides with an axis name"
                    )
                if key not in metric_columns:
                    metric_columns.append(key)
            row: Dict[str, object] = {
                axis: _render(value) for axis, value in point.items()
            }
            row.update(metrics)
            rows.append(row)
        columns = list(self.axes) + metric_columns
        return FigureResult(
            figure=self.name, title=self.title, columns=columns, rows=rows,
        )


def _point_key(point: Dict[str, object]) -> Tuple:
    """A hashable identity for one sweep point (dedup + result lookup)."""
    parts = []
    for axis, value in point.items():
        try:
            hash(value)
        except TypeError:
            value = repr(value)
        parts.append((axis, value))
    return tuple(parts)


def _render(value: object) -> object:
    """Axis values become row labels; keep short reprs for objects."""
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, float):
        return f"{value:g}"
    name = getattr(value, "name", None)
    return str(name) if name is not None else repr(value)


def best_point(
    result: FigureResult, metric: str, minimize: bool = True
) -> Tuple[Dict[str, object], float]:
    """The sweep row optimising ``metric`` (and its value)."""
    candidates = [
        (row, row[metric]) for row in result.rows
        if isinstance(row.get(metric), (int, float))
    ]
    if not candidates:
        raise ConfigError(f"no numeric values for metric {metric!r}")
    chooser = min if minimize else max
    return chooser(candidates, key=lambda pair: pair[1])
