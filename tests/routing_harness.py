"""The deterministic routing harness: a scripted load view for
:class:`repro.service.selector.ReplicaSelector` and a replayable log of
its decisions."""

import collections
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.errors import ConfigError
from repro.service.selector import Decision, ReplicaStats


class RoutingTrace:
    """A bounded, replayable log of routing decisions.

    The deterministic harness's assertion surface: run a scripted
    workload, then compare :meth:`tuples` against the expected
    ``(key, chosen, reason)`` sequence with :meth:`expect`.
    """

    def __init__(self, maxlen: int = 4096) -> None:
        self._decisions: "collections.deque[Decision]" = collections.deque(
            maxlen=maxlen
        )

    def record(self, decision: Decision) -> None:
        self._decisions.append(decision)

    def __len__(self) -> int:
        return len(self._decisions)

    def __iter__(self):
        return iter(self._decisions)

    def decisions(self) -> List[Decision]:
        return list(self._decisions)

    def tuples(self) -> List[Tuple[str, int, str]]:
        return [(d.key, d.chosen, d.reason) for d in self._decisions]

    def chosen_nodes(self) -> List[int]:
        return [d.chosen for d in self._decisions]

    def clear(self) -> None:
        self._decisions.clear()

    def expect(self, expected: Sequence[Tuple[str, int, str]]) -> None:
        """Assert the trace replays exactly as ``expected``.

        Raises ``AssertionError`` naming the first diverging decision --
        the error message is the debugging surface, so it carries both
        sides in full.
        """
        actual = self.tuples()
        if actual == list(expected):
            return
        for slot, (want, got) in enumerate(zip(expected, actual)):
            if want != got:
                raise AssertionError(
                    f"routing trace diverges at decision {slot}: "
                    f"expected {want!r}, got {got!r}\n"
                    f"full trace: {actual!r}"
                )
        raise AssertionError(
            f"routing trace length mismatch: expected {len(expected)} "
            f"decisions, got {len(actual)}\nfull trace: {actual!r}"
        )


class FakeLoadView:
    """A scripted load view: the deterministic half of the harness.

    Tests set each replica's signals directly (:meth:`set_replica`) or
    script a timeline (:meth:`script`) that :meth:`advance` steps
    through -- the last timeline entry sticks, so a "replica 1 is slow
    for 3 decisions then recovers" scenario is three dicts long.
    Unknown nodes read as dead, which is exactly how an epoch-retired
    rack looks to the live views.
    """

    def __init__(self) -> None:
        self._replicas: Dict[int, ReplicaStats] = {}
        #: node -> (timeline, step the script was installed at)
        self._scripts: Dict[int, Tuple[List[ReplicaStats], int]] = {}
        self.step = 0

    def set_replica(self, node: int, *, depth: float = 0.0,
                    ewma_us: float = 0.0, age_s: float = 0.0,
                    live: bool = True, draining: bool = False) -> None:
        self._replicas[int(node)] = ReplicaStats(
            depth=float(depth), ewma_us=float(ewma_us), age_s=float(age_s),
            live=bool(live), draining=bool(draining),
        )

    def remove_replica(self, node: int) -> None:
        """Retire a node entirely -- it now reads as dead."""
        self._replicas.pop(int(node), None)
        self._scripts.pop(int(node), None)

    def script(self, node: int,
               timeline: Iterable[Mapping[str, object]]) -> None:
        """Queue per-step stats for ``node``; applied by :meth:`advance`."""
        steps = [
            ReplicaStats(
                depth=float(entry.get("depth", 0.0)),        # type: ignore
                ewma_us=float(entry.get("ewma_us", 0.0)),    # type: ignore
                age_s=float(entry.get("age_s", 0.0)),        # type: ignore
                live=bool(entry.get("live", True)),
                draining=bool(entry.get("draining", False)),
            )
            for entry in timeline
        ]
        if not steps:
            raise ConfigError("a timeline needs at least one step")
        self._scripts[int(node)] = (steps, self.step)
        self._replicas[int(node)] = steps[0]

    def advance(self, steps: int = 1) -> None:
        """Step every scripted timeline forward (last entry sticks)."""
        for _ in range(int(steps)):
            self.step += 1
            for node, (timeline, start) in self._scripts.items():
                slot = min(self.step - start, len(timeline) - 1)
                self._replicas[node] = timeline[slot]

    def replica(self, node: int) -> ReplicaStats:
        stats = self._replicas.get(int(node))
        if stats is None:
            return ReplicaStats(live=False, age_s=float("inf"))
        return stats

    def nodes(self) -> List[int]:
        return sorted(self._replicas)
