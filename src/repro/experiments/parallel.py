"""Parallel experiment engine: fan independent rack runs out over processes.

Every figure of the paper's evaluation is a sweep of *independent*
(system x workload x seed) simulations, so reproducing the evaluation is
embarrassingly parallel.  This module provides the three pieces the
figure runners and :class:`~repro.experiments.sweeps.Sweep` build on:

* :class:`RunSpec` -- a picklable, hashable description of one rack run
  (the unit of work shipped to worker processes and the cache key);
* :class:`RunCache` -- a bounded LRU of ``RunSpec -> RackResult`` shared
  by every figure in the process (figures 9-12 all read the same YCSB
  sweep and pay for it once);
* :class:`ParallelRunner` -- executes a list of specs with deterministic
  result ordering, per-spec deduplication, and a
  :class:`~concurrent.futures.ProcessPoolExecutor` fan-out that degrades
  gracefully to in-process execution when ``jobs=1``, when there is only
  one uncached spec, or on platforms without ``fork``.

Determinism guarantee: a run's result depends only on its spec (one root
seed feeds named RNG substreams -- see ``docs/simulation-model.md``), so
executing specs in any order, in any process, yields bit-identical
results; the runner then re-assembles them in request order.
"""

import multiprocessing
import pickle
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cluster.config import RackConfig, SystemType
from repro.errors import ConfigError
from repro.experiments.runner import RackResult, run_rack_experiment
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one rack run, picklable and hashable.

    ``overrides`` holds extra :class:`RackConfig` keyword arguments as a
    sorted tuple of pairs so specs hash and compare by value; build specs
    with :meth:`create` to get the normalisation for free.
    """

    system: SystemType
    workload: WorkloadSpec
    requests: int = 3000
    rate: float = 1500.0
    seed: int = 42
    overrides: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def create(
        cls,
        system: SystemType,
        workload: WorkloadSpec,
        requests: int,
        rate: float,
        seed: int,
        **overrides: Any,
    ) -> "RunSpec":
        return cls(
            system=system,
            workload=workload,
            requests=requests,
            rate=rate,
            seed=seed,
            overrides=tuple(sorted(overrides.items())),
        )

    def build_config(self) -> RackConfig:
        return RackConfig(system=self.system, seed=self.seed, **dict(self.overrides))

    def execute(self) -> RackResult:
        """Run this spec in the current process."""
        return run_rack_experiment(
            self.build_config(),
            self.workload,
            requests_per_pair=self.requests,
            rate_iops_per_pair=self.rate,
        )


def _execute_spec(spec: RunSpec) -> RackResult:
    """Top-level worker entry point (must be picklable by name)."""
    return spec.execute()


def _call_with_kwargs(task: Tuple[Callable[..., Any], Dict[str, Any]]) -> Any:
    """Top-level trampoline for :meth:`ParallelRunner.map` keyword tasks."""
    fn, kwargs = task
    return fn(**kwargs)


class RunCache:
    """A bounded LRU of memoized runs, shared across figures.

    Eviction is by least-recent *use* (gets refresh recency), so a long
    sweep session cannot grow the cache without limit while the runs the
    current figure keeps re-reading stay resident.
    """

    def __init__(self, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ConfigError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Any) -> Optional[Any]:
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Any, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, RunCache):
            return self._data == other._data
        if isinstance(other, dict):
            return dict(self._data) == other
        return NotImplemented


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The ``fork`` multiprocessing context, or ``None`` where unsupported.

    Workers are forked rather than spawned so they inherit the fully
    imported package (spawn would re-import per worker and cannot ship
    closures); where fork does not exist (Windows, some sandboxes) the
    runner simply executes in-process.
    """
    try:
        if "fork" not in multiprocessing.get_all_start_methods():
            return None
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - defensive
        return None


class ParallelRunner:
    """Executes :class:`RunSpec` lists with process-pool fan-out.

    * **Deterministic ordering** -- ``run_specs(specs)[i]`` is always the
      result of ``specs[i]``, regardless of completion order.
    * **Deduplication** -- repeated specs (figures frequently re-request
      the runs of an earlier figure) execute exactly once.
    * **Caching** -- results land in a shared :class:`RunCache`; cached
      specs never re-execute, even across figures.
    * **Graceful fallback** -- ``jobs=1``, a single pending spec, a
      platform without ``fork``, or a pool that fails to start all fall
      back to plain in-process execution with identical results.
    """

    def __init__(self, jobs: int = 1, cache: Optional[RunCache] = None) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache if cache is not None else RunCache()

    # ------------------------------------------------------------- specs

    def run_specs(self, specs: Sequence[RunSpec]) -> List[RackResult]:
        """Execute every spec (deduplicated, cached) and return results
        aligned with the input order."""
        pending: List[RunSpec] = []
        seen = set()
        for spec in specs:
            if spec not in seen and spec not in self.cache:
                seen.add(spec)
                pending.append(spec)
        for spec, result in zip(pending, self._execute(pending, _execute_spec)):
            self.cache.put(spec, result)
        return [self.cache.get(spec) for spec in specs]

    # ------------------------------------------------------------ generic

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """``[fn(item) for item in items]`` with the same fan-out rules.

        No caching or deduplication -- this is the escape hatch for
        non-rack work (wear campaigns, user sweeps).  ``fn`` must be a
        module-level function to cross the process boundary; unpicklable
        work degrades to in-process execution instead of failing.
        """
        return self._execute(list(items), fn)

    def starmap_kwargs(
        self, fn: Callable[..., Any], kwargs_list: Sequence[Dict[str, Any]]
    ) -> List[Any]:
        """``[fn(**kw) for kw in kwargs_list]`` via the fan-out engine."""
        tasks = [(fn, dict(kwargs)) for kwargs in kwargs_list]
        return self._execute(tasks, _call_with_kwargs)

    # ----------------------------------------------------------- internals

    def _execute(self, items: List[Any], fn: Callable[[Any], Any]) -> List[Any]:
        if not items:
            return []
        context = _fork_context()
        if self.jobs == 1 or len(items) == 1 or context is None:
            return [fn(item) for item in items]
        if not _is_picklable((fn, items)):
            return [fn(item) for item in items]
        from concurrent.futures import ProcessPoolExecutor

        workers = min(self.jobs, len(items))
        try:
            with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
                return list(pool.map(fn, items))
        except (OSError, PermissionError):
            # Pool creation can be forbidden (containers, seccomp); the
            # work is still valid, just slower in one process.
            return [fn(item) for item in items]


def _is_picklable(payload: Any) -> bool:
    try:
        pickle.dumps(payload)
    except Exception:
        return False
    return True


def default_jobs() -> int:
    """All available cores -- what ``--jobs 0`` resolves to."""
    import os

    return max(1, os.cpu_count() or 1)


# --------------------------------------------------------- shared instances

#: The process-wide run cache every figure shares (figures 9-12 read the
#: same YCSB sweep; this is what makes them pay for it once).
shared_cache = RunCache()

_active_runner = ParallelRunner(jobs=1, cache=shared_cache)


def get_runner() -> ParallelRunner:
    """The runner figure sweeps currently execute through."""
    return _active_runner


@contextmanager
def using_jobs(jobs: int) -> Iterator[ParallelRunner]:
    """Temporarily run figure sweeps with ``jobs`` workers."""
    global _active_runner
    previous = _active_runner
    _active_runner = ParallelRunner(
        jobs=default_jobs() if jobs == 0 else jobs, cache=previous.cache
    )
    try:
        yield _active_runner
    finally:
        _active_runner = previous
