"""Tests for switch egress schedulers: FIFO, token bucket, FQ, priority."""

import random

import pytest

from repro.errors import ConfigError
from collections import deque

from repro.net import (
    EgressPort,
    FairQueueScheduler,
    PriorityScheduler,
    TokenBucketScheduler,
)
from repro.net.packet import OpType, Packet
from repro.sim import Simulator


class FifoScheduler:
    """The simplest egress policy, the port tests' reference: one queue,
    first come first served (no figure selects it, so it lives here)."""

    def __init__(self) -> None:
        self._queue = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def enqueue(self, packet: Packet, flow_id: str, priority: int = 0) -> None:
        self._queue.append(packet)

    def next(self, now: float):
        return (self._queue.popleft(), now) if self._queue else None

    def pass_through(self, packet: Packet, flow_id: str, priority: int,
                     now: float) -> float:
        return now

    def forget_flow(self, flow_id: str) -> None:
        """Nothing is kept per flow."""


def pkt(size_kb=1.0, vssd=1):
    return Packet(op=OpType.READ, vssd_id=vssd, size_kb=size_kb)


class TestFifoScheduler:
    def test_order_preserved(self):
        sched = FifoScheduler()
        a, b = pkt(), pkt()
        sched.enqueue(a, "f1")
        sched.enqueue(b, "f2")
        assert sched.next(0.0)[0] is a
        assert sched.next(0.0)[0] is b

    def test_empty_returns_none(self):
        assert FifoScheduler().next(0.0) is None


class TestTokenBucketScheduler:
    def test_within_burst_is_immediate(self):
        sched = TokenBucketScheduler(flow_rate_kb_per_sec=1000.0, burst_kb=10.0)
        sched.enqueue(pkt(size_kb=4.0), "f1")
        packet, ready = sched.next(0.0)
        assert ready == 0.0

    def test_exceeding_rate_delays(self):
        sched = TokenBucketScheduler(flow_rate_kb_per_sec=1000.0, burst_kb=4.0)
        sched.enqueue(pkt(size_kb=4.0), "f1")
        sched.enqueue(pkt(size_kb=4.0), "f1")
        _, ready1 = sched.next(0.0)
        _, ready2 = sched.next(0.0)
        assert ready1 == 0.0
        # Second packet needs 4KB of tokens at 1000 KB/s = 4 ms = 4000 us.
        assert ready2 == pytest.approx(4000.0)

    def test_flows_isolated(self):
        sched = TokenBucketScheduler(flow_rate_kb_per_sec=1000.0, burst_kb=4.0)
        sched.enqueue(pkt(size_kb=4.0), "hog")
        sched.enqueue(pkt(size_kb=4.0), "hog")
        sched.enqueue(pkt(size_kb=4.0), "victim")
        sched.next(0.0)  # hog's first
        packet, ready = sched.next(0.0)
        # The victim's packet goes before the hog's delayed second packet.
        assert ready == 0.0

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            TokenBucketScheduler(flow_rate_kb_per_sec=0)


class TestFairQueueScheduler:
    def test_round_robin_across_flows(self):
        sched = FairQueueScheduler()
        a1, a2, b1 = pkt(vssd=1), pkt(vssd=1), pkt(vssd=2)
        sched.enqueue(a1, "a")
        sched.enqueue(a2, "a")
        sched.enqueue(b1, "b")
        order = [sched.next(0.0)[0] for _ in range(3)]
        assert order == [a1, b1, a2]

    def test_single_flow_is_fifo(self):
        sched = FairQueueScheduler()
        a, b = pkt(), pkt()
        sched.enqueue(a, "f")
        sched.enqueue(b, "f")
        assert [sched.next(0.0)[0], sched.next(0.0)[0]] == [a, b]

    def test_empty(self):
        assert FairQueueScheduler().next(0.0) is None


class TestPriorityScheduler:
    def test_high_priority_preempts_queue_order(self):
        sched = PriorityScheduler()
        low, high = pkt(), pkt()
        sched.enqueue(low, "f", priority=5)
        sched.enqueue(high, "f", priority=0)
        assert sched.next(0.0)[0] is high

    def test_same_priority_fifo(self):
        sched = PriorityScheduler()
        a, b = pkt(), pkt()
        sched.enqueue(a, "f", priority=3)
        sched.enqueue(b, "f", priority=3)
        assert sched.next(0.0)[0] is a

    def test_priority_range_checked(self):
        sched = PriorityScheduler(levels=4)
        with pytest.raises(ConfigError):
            sched.enqueue(pkt(), "f", priority=4)

    def test_levels_validated(self):
        with pytest.raises(ConfigError):
            PriorityScheduler(levels=0)


def send(port, packet, then=lambda p, t: None, flow_id="default", priority=0,
         extra=0.0):
    port.transmit(packet, flow_id, priority, then, extra)


class TestEgressPort:
    def test_transmission_takes_serialisation_time(self):
        sim = Simulator()
        port = EgressPort(sim, FifoScheduler(), rate_kb_per_us=1.0)
        sent = []
        send(port, pkt(size_kb=5.0), lambda p, t: sent.append((t, sim.now)))
        sim.run()
        assert sent == [(5.0, 5.0)]

    def test_queueing_delay_accumulates(self):
        sim = Simulator()
        port = EgressPort(sim, FifoScheduler(), rate_kb_per_us=1.0)
        times = {}
        send(port, pkt(size_kb=5.0), lambda p, t: times.update(first=t))
        send(port, pkt(size_kb=5.0), lambda p, t: times.update(second=t))
        sim.run()
        assert times == {"first": 5.0, "second": 10.0}

    def test_extra_delays_the_continuation_not_the_port(self):
        # The idle packet's and the queued packet's continuations both run
        # ``extra`` after their packet left; the wire is free in between.
        sim = Simulator()
        port = EgressPort(sim, FifoScheduler(), rate_kb_per_us=1.0)
        seen = []
        for _ in range(2):
            send(port, pkt(size_kb=2.0),
                 lambda p, t: seen.append((t, sim.now)), extra=7.0)
        sim.run()
        assert seen == [(2.0, 9.0), (4.0, 11.0)]

    def test_port_idles_then_resumes(self):
        sim = Simulator()
        port = EgressPort(sim, FifoScheduler(), rate_kb_per_us=1.0)
        send(port, pkt(size_kb=1.0))
        sim.run()
        assert sim.now == pytest.approx(1.0)
        # Late arrival after idle period.
        sim.schedule_after(100.0, lambda: send(port, pkt(size_kb=2.0)))
        sim.run()
        assert sim.now == pytest.approx(103.0)
        assert port.packets_sent == 2

    def test_an_idle_port_costs_one_event_per_packet(self):
        sim = Simulator()
        port = EgressPort(sim, FifoScheduler(), rate_kb_per_us=1.0)
        for at in (0.0, 10.0, 20.0):
            sim.schedule_at(at, lambda: send(port, pkt(size_kb=1.0), extra=5.0))
        sim.run()
        assert sim.event_count == 3 + 3  # the arrivals + one continuation each

    def test_token_bucket_port_enforces_rate(self):
        sim = Simulator()
        sched = TokenBucketScheduler(flow_rate_kb_per_sec=1000.0, burst_kb=4.0)
        port = EgressPort(sim, sched, rate_kb_per_us=100.0)
        for _ in range(3):
            send(port, pkt(size_kb=4.0), flow_id="f")
        sim.run()
        # Two extra packets each wait 4ms for tokens.
        assert sim.now >= 8000.0

    def test_token_bucket_pacing_delays_the_start_not_just_the_queue(self):
        # A head-of-line packet short of tokens has ready > now: the port
        # waits out the refill *and* the serialisation before completing.
        sim = Simulator()
        sched = TokenBucketScheduler(flow_rate_kb_per_sec=1000.0, burst_kb=4.0)
        port = EgressPort(sim, sched, rate_kb_per_us=100.0)
        done_at = []
        for _ in range(2):
            send(port, pkt(size_kb=4.0), lambda p, t: done_at.append(sim.now),
                 flow_id="f")
        sim.run()
        # First: burst covers it, 4 KB at 100 KB/us.  Second: picked at
        # t=0.04 with an (almost) empty bucket, ready once 4 KB of tokens
        # have accrued at 1 KB/ms, then serialised.
        assert done_at == pytest.approx([0.04, 4000.04])

    def test_token_bucket_paces_a_packet_that_finds_the_port_idle(self):
        # The idle path still goes through the policy: a flow out of
        # tokens waits for them even with nothing else on the wire.
        sim = Simulator()
        sched = TokenBucketScheduler(flow_rate_kb_per_sec=1000.0, burst_kb=4.0)
        port = EgressPort(sim, sched, rate_kb_per_us=100.0)
        done_at = []
        send(port, pkt(size_kb=4.0), lambda p, t: done_at.append(t), flow_id="f")
        sim.schedule_at(1.0, lambda: send(
            port, pkt(size_kb=4.0), lambda p, t: done_at.append(t), flow_id="f"))
        sim.run()
        assert done_at == pytest.approx([0.04, 4000.04])

    def test_priority_port_lets_a_later_packet_overtake(self):
        sim = Simulator()
        port = EgressPort(sim, PriorityScheduler(), rate_kb_per_us=1.0)
        order = []

        def tagged(tag, priority):
            send(port, pkt(size_kb=5.0),
                 lambda p, t: order.append((tag, sim.now)), priority=priority)

        tagged("low-0", 1)   # idle port: on the wire at once
        tagged("low-1", 1)   # queued
        sim.schedule_after(1.0, lambda: tagged("high", 0))
        sim.run()
        assert order == [("low-0", 5.0), ("high", 10.0), ("low-1", 15.0)]

    def test_enqueue_from_a_completion_callback_waits_its_turn(self):
        # The port is still draining while continuations run, so a packet
        # they send goes through the policy like any other.
        sim = Simulator()
        port = EgressPort(sim, PriorityScheduler(), rate_kb_per_us=1.0)
        order = []
        send(port, pkt(size_kb=1.0), lambda p, t: send(
            port, pkt(size_kb=1.0),
            lambda p, t: order.append("from-continuation"), priority=1),
            priority=1)
        send(port, pkt(size_kb=1.0), lambda p, t: order.append("queued-high"),
             priority=0)
        sim.run()
        assert order == ["queued-high", "from-continuation"]
        assert port.packets_sent == 3

    def test_forget_flow_drops_idle_state_only(self):
        sim = Simulator()
        sched = TokenBucketScheduler(flow_rate_kb_per_sec=1000.0, burst_kb=4.0)
        port = EgressPort(sim, sched, rate_kb_per_us=1.0)
        send(port, pkt(size_kb=1.0), flow_id="gone")
        send(port, pkt(size_kb=1.0), flow_id="backlogged")
        port.forget_flow("gone")        # its one packet is on the wire
        port.forget_flow("backlogged")  # still queued: kept
        port.forget_flow("never-seen")
        assert set(sched._queues) == set(sched._tokens) == {"backlogged"}
        sim.run()
        assert port.packets_sent == 2
        fq = FairQueueScheduler()
        fq.enqueue(pkt(), "f")
        fq.forget_flow("f")
        assert fq.next(0.0) is not None
        fq.forget_flow("f")
        assert not fq._queues and fq.next(0.0) is None

    def test_invalid_rate(self):
        sim = Simulator()
        with pytest.raises(ConfigError):
            EgressPort(sim, FifoScheduler(), rate_kb_per_us=0.0)


class _OldPort:
    """The port before ``transmit``: every packet queues in the policy and
    completes from its own ``_sent`` event, which then picks the next."""

    def __init__(self, sim, scheduler, rate):
        self.sim, self.scheduler, self.rate = sim, scheduler, rate
        self._sending, self._then = None, {}

    def transmit(self, packet, flow_id, priority, then, extra=0.0):
        self._then[packet.packet_id] = (then, extra)
        self.scheduler.enqueue(packet, flow_id, priority)
        if self._sending is None:
            self._send_next()

    def _send_next(self):
        entry = self.scheduler.next(self.sim.now)
        if entry is None:
            self._sending = None
            return
        self._sending, ready = entry
        wait = self._sending.size_kb / self.rate
        if ready > self.sim.now:
            wait += ready - self.sim.now
        self.sim.schedule_after(wait, self._sent)

    def _sent(self):
        packet, sent_at = self._sending, self.sim.now
        then, extra = self._then.pop(packet.packet_id)
        self.sim.schedule_after(extra, lambda: then(packet, sent_at))
        self._send_next()


_POLICIES = {
    "fifo": FifoScheduler,
    "priority": PriorityScheduler,
    "fq": FairQueueScheduler,
    "tb": lambda: TokenBucketScheduler(flow_rate_kb_per_sec=200_000.0,
                                       burst_kb=8.0),
}


def _arrivals(seed):
    """Seeded (time, size, flow, priority) arrivals: idle gaps, same-instant
    bursts, arrivals that land exactly when the wire frees.

    One tie is left out: a *burst* at the very instant an idle wire frees.
    The per-packet port decided it by whether its ``_sent`` event or the
    arrivals came first in the heap; the new port has no such event and
    sends the first arrival at once.
    """
    rng = random.Random(seed)
    rate, at, out, exact = 6.25, 0.0, [], False
    for _ in range(60):
        roll = rng.random()
        if roll < 0.35:
            at += rng.uniform(5.0, 40.0)       # idle gap
        elif roll < 0.6 or exact:
            at += rng.uniform(0.01, 0.5)       # lands on a busy wire
        elif out and roll < 0.8:
            at = out[-1][0] + out[-1][1] / rate  # at free_at, if it was idle
        # else: same instant as the previous arrival
        exact = 0.6 <= roll < 0.8
        out.append((at, rng.choice((0.1, 4.0)), f"flow-{rng.randrange(3)}",
                    rng.randrange(3)))
    return out


@pytest.mark.parametrize("policy", sorted(_POLICIES))
@pytest.mark.parametrize("seed", range(8))
def test_transmit_matches_the_per_packet_port(policy, seed):
    def play(port_class):
        sim = Simulator()
        port = port_class(sim, _POLICIES[policy](), 6.25)
        log = []
        for index, (at, size, flow, priority) in enumerate(_arrivals(seed)):
            packet = pkt(size_kb=size)
            sim.schedule_at(at, lambda p=packet, f=flow, pr=priority, i=index:
                        port.transmit(p, f, pr,
                                      lambda _p, sent_at, i=i: log.append(
                                          (i, sent_at, sim.now)),
                                      5.0 if i % 2 else 0.0))
        sim.run()
        return log, sim.event_count

    old, old_events = play(_OldPort)
    new, new_events = play(EgressPort)
    assert len(new) == 60
    assert sorted(new) == sorted(old)  # floats compared with ==
    assert new_events < old_events


def test_an_arrival_at_the_wake_instant_does_not_steal_a_queued_turn():
    # A is on the wire until t=4, B queues behind it (the port will wake at
    # t=4).  C's arrival event for t=4 was scheduled before that wake, so
    # it runs first and finds the wire free -- but B is waiting: C queues,
    # and the policy, not arrival luck, picks who goes at t=4.
    sim = Simulator()
    port = EgressPort(sim, FifoScheduler(), rate_kb_per_us=1.0)
    order = []
    sim.schedule_at(4.0, lambda: send(port, pkt(size_kb=4.0),
                                  lambda p, t: order.append(("C", t))))
    send(port, pkt(size_kb=4.0), lambda p, t: order.append(("A", t)))
    send(port, pkt(size_kb=4.0), lambda p, t: order.append(("B", t)))
    sim.run()
    assert order == [("A", 4.0), ("B", 8.0), ("C", 12.0)]
