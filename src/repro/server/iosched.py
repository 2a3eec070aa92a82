"""Storage I/O schedulers (§4.5.1).

Three Linux block-layer schedulers reimplemented for the SDF stack:

* **no-op (FIFO)** -- the NVMe default: one queue, arrival order;
* **Deadline** -- separate read/write queues; requests are promoted when
  their deadline expires, reads preferred otherwise;
* **Kyber** -- separate read/write queues throttled to latency targets:
  completion feedback shrinks or grows each queue's dispatch budget.

:class:`CoordinatedScheduler` wraps any of them with RackBlox's
coordinated I/O scheduling: within the queue the base policy selects,
requests are reordered by ``Prio = Net_time + Storage_time +
Predict_time`` and the *largest* priority dispatches first (§3.4) -- the
request that has already lost the most end-to-end budget goes next.
"""

from collections import deque
from typing import Callable, Deque, Optional

from repro.errors import ConfigError
from repro.sim.core import MSEC

#: Dispatch-eligibility predicate: the server passes one to ``pop`` so a
#: request whose vSSD already has a full device queue stays *in* the
#: scheduler (where policy, including coordinated reordering, still
#: applies) instead of piling up below it.
Eligible = Optional[Callable[["IoRequest"], bool]]


def _first_eligible(queue: Deque["IoRequest"], eligible: Eligible) -> Optional[int]:
    """Index of the first dispatchable request in a queue, or ``None``."""
    if eligible is None:
        return 0 if queue else None
    for idx, request in enumerate(queue):
        if eligible(request):
            return idx
    return None


class IoRequest:
    """One I/O request queued in the storage stack.

    A hand-written ``__slots__`` class (one per read and per flush); its
    fields are not changed once it is built.
    """

    __slots__ = ("kind", "vssd_id", "lpn", "arrival_time", "net_time",
                 "predict_time", "context", "rank")

    def __init__(
        self,
        kind: str,
        vssd_id: int,
        lpn: int,
        arrival_time: float,
        net_time: float = 0.0,
        predict_time: float = 0.0,
        context: object = None,
    ) -> None:
        self.kind = kind  # "read" | "write"
        self.vssd_id = vssd_id
        self.lpn = lpn
        #: Time the request entered the server's queue.
        self.arrival_time = arrival_time
        #: Net_time: accumulated in-network latency (from the INT field).
        self.net_time = net_time
        #: Predict_time: predicted return-path latency, stamped at enqueue.
        self.predict_time = predict_time
        #: Opaque cookie the server uses to complete the request.
        self.context = context
        #: ``priority(now)`` minus the shared ``now`` term.  ``priority``
        #: differences between two queued requests are constant over time
        #: (the clock advances for everyone equally), so comparing ranks
        #: picks the same winner as comparing priorities -- without
        #: re-reading the clock per candidate in the selection scan.
        self.rank = net_time + predict_time - arrival_time

    def priority(self, now: float) -> float:
        """Prio_sched = Net_time + Storage_time + Predict_time (§3.4)."""
        storage_time = now - self.arrival_time
        return self.net_time + storage_time + self.predict_time


class FifoIoScheduler:
    """no-op: a single FIFO queue (the NVMe default)."""

    name = "fifo"

    def __init__(self) -> None:
        self._queue: Deque[IoRequest] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, request: IoRequest, now: float) -> None:
        """Enqueue a request (arrival order is dispatch order)."""
        self._queue.append(request)

    def pop(self, now: float, eligible: Eligible = None) -> Optional[IoRequest]:
        """Dispatch the first eligible request, FIFO."""
        idx = _first_eligible(self._queue, eligible)
        if idx is None:
            return None
        request = self._queue[idx]
        del self._queue[idx]
        return request

    def record_completion(self, kind: str, latency_us: float,
                          request: Optional[IoRequest] = None) -> None:
        """FIFO ignores completion feedback."""


class DeadlineIoScheduler:
    """Deadline: expired requests first, reads preferred otherwise.

    Default deadlines follow §4.5.1: 0.5 ms for reads, 1.75 ms for writes
    (the coordinated variant raises them to absorb network latency).
    """

    name = "deadline"

    def __init__(
        self,
        read_deadline_us: float = 0.5 * MSEC,
        write_deadline_us: float = 1.75 * MSEC,
    ) -> None:
        if read_deadline_us <= 0 or write_deadline_us <= 0:
            raise ConfigError("deadlines must be positive")
        self.read_deadline_us = read_deadline_us
        self.write_deadline_us = write_deadline_us
        self._reads: Deque[IoRequest] = deque()
        self._writes: Deque[IoRequest] = deque()

    def __len__(self) -> int:
        return len(self._reads) + len(self._writes)

    def push(self, request: IoRequest, now: float) -> None:
        """Enqueue into the read or write class queue."""
        (self._reads if request.kind == "read" else self._writes).append(request)

    def _deadline_of(self, request: IoRequest) -> float:
        limit = (
            self.read_deadline_us if request.kind == "read" else self.write_deadline_us
        )
        return request.arrival_time + limit

    def pop(self, now: float, eligible: Eligible = None) -> Optional[IoRequest]:
        """Dispatch per the deadline policy (expired first, then reads)."""
        read_idx = _first_eligible(self._reads, eligible)
        write_idx = _first_eligible(self._writes, eligible)
        # Expired request with the oldest deadline wins.
        candidates = []
        if read_idx is not None and self._deadline_of(self._reads[read_idx]) <= now:
            candidates.append((self._reads, read_idx))
        if write_idx is not None and self._deadline_of(self._writes[write_idx]) <= now:
            candidates.append((self._writes, write_idx))
        if candidates:
            queue, idx = min(
                candidates, key=lambda pair: self._deadline_of(pair[0][pair[1]])
            )
            request = queue[idx]
            del queue[idx]
            return request
        # Otherwise reads are preferred (they are latency critical).
        if read_idx is not None:
            request = self._reads[read_idx]
            del self._reads[read_idx]
            return request
        if write_idx is not None:
            request = self._writes[write_idx]
            del self._writes[write_idx]
            return request
        return None

    def record_completion(self, kind: str, latency_us: float,
                          request: Optional[IoRequest] = None) -> None:
        """Deadline ignores completion feedback."""


class KyberIoScheduler:
    """Kyber: latency-target throttling with completion feedback.

    Each queue has a dispatch budget.  When a class's observed latency
    (EWMA of completions) exceeds its target, the *other* class's budget is
    cut so the struggling class gets a larger share -- a faithful
    simplification of Kyber's domain-token scaling.  Targets default to
    §4.1's values: 750 us for reads, 3 ms for writes (95th percentile).
    """

    name = "kyber"

    def __init__(
        self,
        read_target_us: float = 0.75 * MSEC,
        write_target_us: float = 3.0 * MSEC,
        ewma_alpha: float = 0.3,
    ) -> None:
        if read_target_us <= 0 or write_target_us <= 0:
            raise ConfigError("latency targets must be positive")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigError(f"ewma_alpha must be in (0,1], got {ewma_alpha}")
        self.read_target_us = read_target_us
        self.write_target_us = write_target_us
        self.ewma_alpha = ewma_alpha
        self._reads: Deque[IoRequest] = deque()
        self._writes: Deque[IoRequest] = deque()
        self._read_ewma = 0.0
        self._write_ewma = 0.0
        #: Consecutive dispatches granted to writes while reads lag.
        self._write_skips = 0

    def __len__(self) -> int:
        return len(self._reads) + len(self._writes)

    def push(self, request: IoRequest, now: float) -> None:
        """Enqueue into the read or write class queue."""
        (self._reads if request.kind == "read" else self._writes).append(request)

    def record_completion(self, kind: str, latency_us: float,
                          request: Optional[IoRequest] = None) -> None:
        if kind == "read":
            self._read_ewma += self.ewma_alpha * (latency_us - self._read_ewma)
        else:
            self._write_ewma += self.ewma_alpha * (latency_us - self._write_ewma)

    def _read_pressure(self) -> bool:
        return self._read_ewma > self.read_target_us

    def _write_pressure(self) -> bool:
        return self._write_ewma > self.write_target_us

    def pop(self, now: float, eligible: Eligible = None) -> Optional[IoRequest]:
        """Dispatch per Kyber's read-preferring, feedback-scaled shares."""
        if eligible is None:  # the common case, without two calls
            read_idx = 0 if self._reads else None
            write_idx = 0 if self._writes else None
        else:
            read_idx = _first_eligible(self._reads, eligible)
            write_idx = _first_eligible(self._writes, eligible)
        if read_idx is None and write_idx is None:
            return None
        if write_idx is None:
            queue, idx = self._reads, read_idx
        elif read_idx is None:
            queue, idx = self._writes, write_idx
        else:
            # Both backlogged: reads preferred; writes are admitted 1-in-N,
            # where N grows when reads miss their target and shrinks when
            # writes miss theirs.
            write_share = 4
            if self._read_pressure():
                write_share = 8
            if self._write_pressure():
                write_share = max(2, write_share // 2)
            self._write_skips += 1
            if self._write_skips >= write_share:
                self._write_skips = 0
                queue, idx = self._writes, write_idx
            else:
                queue, idx = self._reads, read_idx
        request = queue[idx]
        del queue[idx]
        return request


class CoordinatedScheduler:
    """RackBlox's coordinated I/O scheduling on top of any base policy.

    The base policy still decides *which class* dispatches (deadlines,
    latency targets); coordination reorders *within* that choice by the
    end-to-end priority, so the request that has burned the most
    network+queue budget is served first.
    """

    def __init__(self, base) -> None:
        self.base = base
        self.name = f"coordinated-{base.name}"
        # The base policy's own queues, per kind (same-package access);
        # ``None`` for a base this wrapper cannot reorder within.
        self._read_queue: Optional[Deque[IoRequest]] = None
        self._write_queue: Optional[Deque[IoRequest]] = None
        if isinstance(base, FifoIoScheduler):
            self._read_queue = self._write_queue = base._queue  # noqa: SLF001
        elif isinstance(base, (DeadlineIoScheduler, KyberIoScheduler)):
            self._read_queue = base._reads  # noqa: SLF001
            self._write_queue = base._writes  # noqa: SLF001

    def __len__(self) -> int:
        return len(self.base)

    def push(self, request: IoRequest, now: float) -> None:
        """Delegate to the base policy's queues."""
        self.base.push(request, now)

    def record_completion(self, kind: str, latency_us: float,
                          request: Optional[IoRequest] = None) -> None:
        # The coordinated variant's raised targets (§4.5.1) are end-to-end
        # budgets, so the base policy's feedback must see the end-to-end
        # estimate: measured network time + storage time + predicted
        # return time -- not the storage component alone.
        if request is not None:
            latency_us = latency_us + request.net_time + request.predict_time
        self.base.record_completion(kind, latency_us)

    def pop(self, now: float, eligible: Eligible = None) -> Optional[IoRequest]:
        chosen = self.base.pop(now, eligible)
        if chosen is None:
            return None
        # Reorder within the queue the base policy selected: swap the
        # chosen request for the same-kind eligible request with the
        # maximum Prio_sched.
        queue = self._read_queue if chosen.kind == "read" else self._write_queue
        if queue is None:
            return chosen
        best_idx = -1
        best_rank = chosen.rank
        for idx, candidate in enumerate(queue):
            if eligible is not None and not eligible(candidate):
                continue
            rank = candidate.rank
            if rank > best_rank:
                best_rank = rank
                best_idx = idx
        if best_idx < 0:
            return chosen
        better = queue[best_idx]
        del queue[best_idx]
        queue.appendleft(chosen)  # chosen re-queued at the front of its class
        return better


def make_scheduler(
    name: str,
    coordinated: bool = False,
    **kwargs,
):
    """Factory: ``fifo`` / ``deadline`` / ``kyber``, optionally coordinated.

    Coordinated Deadline/Kyber get the §4.5.1 raised parameters (deadlines
    and targets grown by the expected network latency) unless overridden.
    """
    name = name.lower()
    if name in ("fifo", "noop", "none"):
        base = FifoIoScheduler()
    elif name == "deadline":
        if coordinated and not kwargs:
            kwargs = {"read_deadline_us": 1.5 * MSEC, "write_deadline_us": 2.75 * MSEC}
        base = DeadlineIoScheduler(**kwargs)
    elif name == "kyber":
        if coordinated and not kwargs:
            kwargs = {"read_target_us": 1.75 * MSEC, "write_target_us": 4.0 * MSEC}
        base = KyberIoScheduler(**kwargs)
    else:
        raise ConfigError(f"unknown scheduler {name!r} (fifo/deadline/kyber)")
    return CoordinatedScheduler(base) if coordinated else base
