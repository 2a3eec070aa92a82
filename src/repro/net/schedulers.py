"""Switch egress scheduling policies (§4.5.2).

The paper evaluates RackBlox under three network scheduling policies in the
ToR switch: **token-bucket rate limiting** (the VDC-style isolation
default), **fair queuing** across competing client flows, and **strict
priority** (where periodically generated high-priority traffic delays
storage requests).

An :class:`EgressPort` drains a policy object at a configurable line rate
and tells each packet's continuation when its transmission completed, so
the queueing + serialisation delay lands in the packet's INT field.  A
policy is five methods: ``enqueue``, ``next(now) -> (packet, ready)``,
``pass_through(packet, flow_id, priority, now) -> ready`` (exactly
``enqueue`` then ``next`` on an empty policy, for a packet an idle port
sends at once), ``__len__`` and ``forget_flow``.
"""

from collections import OrderedDict, deque
from functools import partial
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.net.packet import Packet
from repro.sim import Simulator


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

    def pass_through(self, packet: Packet, flow_id: str, priority: int,
                     now: float) -> float:
        """``enqueue`` + ``next`` with every queue empty: the bucket is
        created (in flow order) as ``enqueue`` would, refilled and
        charged as ``next`` would.  ``next``'s second refill is at the
        same ``now`` and changes nothing."""
        if flow_id not in self._queues:
            self._queues[flow_id] = deque()
            self._tokens.setdefault(flow_id, self.burst_kb)
            self._last_refill.setdefault(flow_id, 0.0)
        self._refill(flow_id, now)
        need = packet.size_kb
        have = self._tokens[flow_id]
        if have >= need:
            ready = now
        else:
            ready = now + (need - have) / self.flow_rate * 1e6
        self._tokens[flow_id] = have - need
        return ready

    def forget_flow(self, flow_id: str) -> None:
        """Drop an idle flow's queue and bucket (a backlogged one stays)."""
        queue = self._queues.get(flow_id)
        if queue is not None and not queue:
            del self._queues[flow_id]
            del self._tokens[flow_id]
            del self._last_refill[flow_id]


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

    def pass_through(self, packet: Packet, flow_id: str, priority: int,
                     now: float) -> float:
        """``enqueue`` + ``next`` with no flow backlogged: the flow's
        queue exists afterwards, empty and out of the rotation."""
        if flow_id not in self._queues:
            self._queues[flow_id] = deque()
        return now

    def forget_flow(self, flow_id: str) -> None:
        """Drop an idle flow's queue (a backlogged one stays)."""
        queue = self._queues.get(flow_id)
        if queue is not None and not queue:
            del self._queues[flow_id]


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

    def pass_through(self, packet: Packet, flow_id: str, priority: int,
                     now: float) -> float:
        """``enqueue`` + ``next`` on empty levels: the level is checked
        and the packet is ready at once."""
        if not 0 <= priority < self.levels:
            raise ConfigError(
                f"priority {priority} out of range [0,{self.levels})"
            )
        return now

    def forget_flow(self, flow_id: str) -> None:
        """Nothing is kept per flow."""


class EgressPort:
    """One switch egress port: a scheduler drained at line rate.

    ``transmit`` hands ``then(packet, sent_at)`` the instant the packet
    has fully left the port; ``sent_at`` minus the time of the call
    (queueing + serialisation) is what INT records as this hop's latency.

    An idle port costs arithmetic: the policy is consulted (so its
    accounting and pacing apply), ``free_at`` moves, and the one event
    scheduled is the caller's continuation.  Only a packet that arrives
    while another is on the wire waits in the policy, and the port then
    drains it packet by packet, choosing the next one at each completion.
    """

    def __init__(
        self,
        sim: Simulator,
        scheduler,
        rate_kb_per_us: float = 6.25,  # ~50 Gb/s, the testbed's NIC speed
    ) -> None:
        if rate_kb_per_us <= 0:
            raise ConfigError("line rate must be positive")
        self.sim = sim
        self.scheduler = scheduler
        self.rate = rate_kb_per_us
        #: When the packet on the wire has left (the wire is free from then).
        self.free_at = 0.0
        #: The policy holds packets and a ``_send_next``/``_sent`` of this
        #: port is scheduled; arrivals queue behind them even at ``free_at``.
        self._draining = False
        self._sending: Optional[Packet] = None
        #: ``(then, extra)`` of each queued packet, by packet id.
        self._waiting: Dict[int, Tuple[Callable[[Packet, float], None], float]] = {}
        #: Packets put on the wire.
        self.packets_sent = 0

    def transmit(self, packet: Packet, flow_id: str, priority: int,
                 then: Callable[[Packet, float], None],
                 extra: float = 0.0) -> None:
        """Send ``packet``; ``then(packet, sent_at)`` runs ``extra``
        microseconds after it left the port (a fixed propagation delay
        the caller would otherwise schedule from ``then``)."""
        sim = self.sim
        now = sim.now
        if self._draining or self.free_at > now:
            self.scheduler.enqueue(packet, flow_id, priority)
            self._waiting[packet.packet_id] = (then, extra)
            if not self._draining:
                self._draining = True
                sim.schedule_at(self.free_at, self._send_next)
        else:
            # Idle port: the policy is empty, so this packet is the one
            # ``next`` would pick.
            ready = self.scheduler.pass_through(packet, flow_id, priority, now)
            # One combined wait for pacing delay + serialization.
            wait = packet.size_kb / self.rate
            if ready > now:
                wait += ready - now
            self.free_at = sent_at = now + wait
            self.packets_sent += 1
            # Grouped as the two waits were: (now + wait) + extra.
            sim.schedule_at(sent_at + extra, partial(then, packet, sent_at))

    @property
    def queue_depth(self) -> int:
        return len(self.scheduler)

    def forget_flow(self, flow_id: str) -> None:
        """Drop the policy's state for a flow that will not send again."""
        self.scheduler.forget_flow(flow_id)

    def _send_next(self) -> None:
        now = self.sim.now
        entry = self.scheduler.next(now)
        if entry is None:
            self._draining = False
            return
        self._sending, ready = entry
        wait = self._sending.size_kb / self.rate
        if ready > now:
            wait += ready - now
        self.free_at = now + wait
        self.packets_sent += 1
        self.sim.schedule_after(wait, self._sent)

    def _sent(self) -> None:
        # Complete the packet, then pick the next: the port counts as
        # draining while the continuation runs, so a transmit from inside
        # it joins the policy's choice instead of jumping it.
        packet = self._sending
        then, extra = self._waiting.pop(packet.packet_id)
        now = self.sim.now
        if extra:
            self.sim.schedule_at(now + extra, partial(then, packet, now))
        else:
            then(packet, now)
        self._send_next()
