"""Synchronisation resources: stores and counted resources.

These model the queues that pervade the reproduction: NIC transmit queues,
switch ingress pipelines, per-channel command queues, and the storage-server
I/O scheduler all sit on a :class:`Store` variant.
"""

import heapq
import itertools
from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import Event


class Store:
    """An unbounded FIFO queue with event-based ``get``.

    ``put`` never blocks (capacity pressure in the modelled systems is
    expressed through latency, not loss).  ``get`` returns an
    :class:`Event` that fires with the next item.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> Tuple[Any, ...]:
        """Snapshot of queued items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; ``None`` when the store is empty."""
        if self._items:
            return self._items.popleft()
        return None


class PriorityStore:
    """A store whose ``get`` returns the item with the *smallest* key.

    Items are ``(priority, payload)`` pairs; ties break FIFO via an internal
    sequence number so identical priorities preserve arrival order.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self._heap: List[Tuple[Any, int, Any]] = []
        self._getters: Deque[Event] = deque()
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def items(self) -> Tuple[Any, ...]:
        """Snapshot of queued payloads in priority order."""
        return tuple(payload for _, _, payload in sorted(self._heap))

    def put(self, priority: Any, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            heapq.heappush(self._heap, (priority, next(self._seq), item))

    def get(self) -> Event:
        event = Event(self.sim)
        if self._heap:
            _, _, item = heapq.heappop(self._heap)
            event.succeed(item)
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Optional[Any]:
        if self._heap:
            return heapq.heappop(self._heap)[2]
        return None


class Resource:
    """A counted resource: at most ``capacity`` concurrent holders.

    ``acquire`` returns an event that fires when a slot is granted; the
    holder must call ``release`` exactly once.  A general-purpose kernel
    primitive for process-style models; nothing on the rack's data path
    uses it (the flash channel bus keeps its own FIFO of callbacks).
    """

    def __init__(self, sim, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        event = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release() without a matching acquire()")
        if self._waiters:
            # Hand the slot directly to the next waiter; _in_use is
            # unchanged because occupancy transfers.
            self._waiters.popleft().succeed(self)
        else:
            self._in_use -= 1
