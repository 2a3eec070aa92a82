"""Switch egress scheduling policies (§4.5.2).

The paper evaluates RackBlox under three network scheduling policies in the
ToR switch: **token-bucket rate limiting** (the VDC-style isolation
default), **fair queuing** across competing client flows, and **strict
priority** (where periodically generated high-priority traffic delays
storage requests).

An :class:`EgressPort` drains a policy object at a configurable line rate;
enqueued packets get an event that fires when their transmission completes,
so the queueing + serialisation delay lands in the packet's INT field.
"""

from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.net.packet import Packet
from repro.sim import Event, Simulator


class FifoScheduler:
    """Baseline: one queue, first come first served."""

    def __init__(self) -> None:
        self._queue: Deque[Tuple[Packet, str, int]] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def enqueue(self, packet: Packet, flow_id: str, priority: int = 0) -> None:
        """Queue a packet (flow and priority ignored by FIFO)."""
        self._queue.append((packet, flow_id, priority))

    def next(self, now: float) -> Optional[Tuple[Packet, float]]:
        """Head packet and the earliest time it may start transmitting."""
        if not self._queue:
            return None
        packet, _, _ = self._queue.popleft()
        return packet, now


class TokenBucketScheduler:
    """Per-flow token buckets (the paper's TB / VDC isolation policy).

    Each flow may transmit a packet only when its bucket holds enough
    tokens (one token per KB).  Among eligible flows the earliest-eligible
    head-of-line packet wins, so a flow exceeding its rate is delayed
    without blocking others.
    """

    def __init__(self, flow_rate_kb_per_sec: float, burst_kb: float = 64.0) -> None:
        if flow_rate_kb_per_sec <= 0 or burst_kb <= 0:
            raise ConfigError("flow rate and burst must be positive")
        self.flow_rate = flow_rate_kb_per_sec
        self.burst_kb = burst_kb
        self._queues: "OrderedDict[str, Deque[Packet]]" = OrderedDict()
        self._tokens: Dict[str, float] = {}
        self._last_refill: Dict[str, float] = {}

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def enqueue(self, packet: Packet, flow_id: str, priority: int = 0) -> None:
        """Queue a packet on its flow (buckets created lazily)."""
        self._queues.setdefault(flow_id, deque()).append(packet)
        self._tokens.setdefault(flow_id, self.burst_kb)
        self._last_refill.setdefault(flow_id, 0.0)

    def _refill(self, flow_id: str, now: float) -> None:
        elapsed_sec = (now - self._last_refill[flow_id]) / 1e6
        if elapsed_sec > 0:
            self._tokens[flow_id] = min(
                self.burst_kb, self._tokens[flow_id] + elapsed_sec * self.flow_rate
            )
            self._last_refill[flow_id] = now

    def next(self, now: float) -> Optional[Tuple[Packet, float]]:
        """Earliest token-eligible head-of-line packet across flows."""
        best: Optional[Tuple[float, str]] = None
        for flow_id, queue in self._queues.items():
            if not queue:
                continue
            self._refill(flow_id, now)
            need = queue[0].size_kb
            have = self._tokens[flow_id]
            if have >= need:
                ready = now
            else:
                ready = now + (need - have) / self.flow_rate * 1e6
            if best is None or ready < best[0]:
                best = (ready, flow_id)
        if best is None:
            return None
        ready, flow_id = best
        packet = self._queues[flow_id].popleft()
        # Charge the bucket (may go slightly negative until ready time).
        self._refill(flow_id, now)
        self._tokens[flow_id] -= packet.size_kb
        return packet, ready


class FairQueueScheduler:
    """Packet-wise round-robin fair queuing across flows.

    Approximates the switch's FQ policy: every backlogged flow gets an
    equal share of transmission opportunities (equal-size storage packets
    make packet-fair and byte-fair equivalent).
    """

    def __init__(self) -> None:
        self._queues: "OrderedDict[str, Deque[Packet]]" = OrderedDict()
        self._rotation: Deque[str] = deque()

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def enqueue(self, packet: Packet, flow_id: str, priority: int = 0) -> None:
        """Queue a packet on its flow and keep it in the service rotation."""
        if flow_id not in self._queues:
            self._queues[flow_id] = deque()
        if not self._queues[flow_id] and flow_id not in self._rotation:
            self._rotation.append(flow_id)
        elif flow_id not in self._rotation:
            self._rotation.append(flow_id)
        self._queues[flow_id].append(packet)

    def next(self, now: float) -> Optional[Tuple[Packet, float]]:
        """Round-robin across backlogged flows."""
        while self._rotation:
            flow_id = self._rotation.popleft()
            queue = self._queues.get(flow_id)
            if not queue:
                continue
            packet = queue.popleft()
            if queue:
                self._rotation.append(flow_id)
            return packet, now
        return None


class PriorityScheduler:
    """Strict priority: lower priority number transmits first.

    The §4.5.2 experiment periodically injects high-priority traffic that
    delays storage requests -- exactly the behaviour a strict-priority
    scheduler produces.
    """

    def __init__(self, levels: int = 8) -> None:
        if levels < 1:
            raise ConfigError("need at least one priority level")
        self._queues = [deque() for _ in range(levels)]  # type: ignore[var-annotated]
        self.levels = levels

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues)

    def enqueue(self, packet: Packet, flow_id: str, priority: int = 0) -> None:
        """Queue at the given priority level (0 = highest)."""
        if not 0 <= priority < self.levels:
            raise ConfigError(
                f"priority {priority} out of range [0,{self.levels})"
            )
        self._queues[priority].append(packet)

    def next(self, now: float) -> Optional[Tuple[Packet, float]]:
        """Strictly highest-priority first, FIFO within a level."""
        for queue in self._queues:
            if queue:
                return queue.popleft(), now
        return None


class EgressPort:
    """One switch egress port: a scheduler drained at line rate.

    ``enqueue`` returns an event that fires when the packet has fully left
    the port; the elapsed time (queueing + serialisation) is what INT
    records as this hop's latency.
    """

    def __init__(
        self,
        sim: Simulator,
        scheduler,
        rate_kb_per_us: float = 6.25,  # ~50 Gb/s, the testbed's NIC speed
        on_transmit: Optional[Callable[[Packet, float], None]] = None,
    ) -> None:
        if rate_kb_per_us <= 0:
            raise ConfigError("line rate must be positive")
        self.sim = sim
        self.scheduler = scheduler
        self.rate = rate_kb_per_us
        self.on_transmit = on_transmit
        self._completions: Dict[int, Event] = {}
        #: The packet on the wire (``None`` while the port is idle).
        self._sending: Optional[Packet] = None
        self.packets_sent = 0

    def enqueue(self, packet: Packet, flow_id: str = "default", priority: int = 0) -> Event:
        done = Event(self.sim)
        self._completions[packet.packet_id] = done
        self.scheduler.enqueue(packet, flow_id, priority)
        if self._sending is None:
            self._send_next()
        return done

    @property
    def queue_depth(self) -> int:
        return len(self.scheduler)

    def _send_next(self) -> None:
        entry = self.scheduler.next(self.sim.now)
        if entry is None:
            self._sending = None
            return
        self._sending, ready = entry
        # One combined wait for pacing delay + serialization: the
        # completion instant is identical to waiting them separately.
        wait = self._sending.size_kb / self.rate
        if ready > self.sim.now:
            wait += ready - self.sim.now
        self.sim.schedule_after(wait, self._sent)

    def _sent(self) -> None:
        # Complete the packet, then pick the next: the port counts as busy
        # while completion callbacks run, so an enqueue from one of them
        # joins the policy's choice instead of jumping it.
        packet = self._sending
        self.packets_sent += 1
        done = self._completions.pop(packet.packet_id, None)
        if self.on_transmit is not None:
            self.on_transmit(packet, self.sim.now)
        if done is not None:
            done.succeed(packet)
        self._send_next()
