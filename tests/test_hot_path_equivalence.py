"""Equivalence guards for the simulator's trimmed per-request computations.

Each rewritten computation is checked against the straightforward form
it replaced, on a twin fed the same inputs: the draws, floats and state
must come out identical (``==``), not merely close.
"""

import math
import random

import pytest

from repro.errors import ConfigError, OutOfSpaceError
from repro.flash.chip import FlashChip
from repro.flash.ftl import PageMappedFtl
from repro.net.latency import (
    FAST_NETWORK,
    MEDIUM_NETWORK,
    SLOW_NETWORK,
    LatencyProcess,
)
from repro.net.packet import OpType, Packet
from repro.net.schedulers import (
    FairQueueScheduler,
    PriorityScheduler,
    TokenBucketScheduler,
)
from repro.server.iosched import IoRequest
from repro.sim import Simulator

from tests.test_net_schedulers import FifoScheduler

PROFILES = [FAST_NETWORK, MEDIUM_NETWORK, SLOW_NETWORK]


class _ReferenceLatency:
    """The sampler as first written: ``exp(rng.normalvariate(...))`` and
    a reverse scan of every congestion window."""

    def __init__(self, profile, rng):
        self.profile = profile
        self.rng = rng
        self.episode_rng = random.Random(rng.getrandbits(63))
        self.mu = math.log(profile.base_us)
        self.windows = []
        self.horizon = 0.0

    def congested(self, now):
        while self.horizon <= now:
            gap = self.episode_rng.expovariate(1.0 / self.profile.congestion_off_us)
            duration = self.episode_rng.expovariate(1.0 / self.profile.congestion_on_us)
            start = self.horizon + gap
            self.windows.append((start, start + duration))
            self.horizon = start + duration
        for start, end in reversed(self.windows):
            if start <= now < end:
                return True
            if end < now:
                break
        return False

    def sample(self, now, direction):
        profile = self.profile
        draw = math.exp(self.rng.normalvariate(self.mu, profile.sigma))
        if self.congested(now):
            draw *= profile.congestion_factor
        prob = (profile.straggler_prob if direction == "out"
                else profile.return_straggler_prob)
        if prob > 0 and self.rng.random() < prob:
            draw *= 1.0 + self.rng.expovariate(1.0 / profile.straggler_factor)
        return draw


def _instants(seed, count):
    """Mostly increasing send times with earlier ones mixed in (a return
    leg samples at its send time, before the clock's ``now``)."""
    rng = random.Random(seed)
    now = 0.0
    for _ in range(count):
        now += rng.expovariate(1.0 / 5_000.0)
        if rng.random() < 0.2:
            yield max(0.0, now - rng.uniform(0.0, 200_000.0))
        else:
            yield now


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_latency_sample_matches_reference_draw_for_draw(profile):
    ours = LatencyProcess(profile, random.Random(41))
    ref = _ReferenceLatency(profile, random.Random(41))
    directions = random.Random(7)
    congested = 0
    for now in _instants(3, 10_000):
        direction = "out" if directions.random() < 0.5 else "ret"
        assert ours.sample(now, direction) == ref.sample(now, direction)
        congested += ref.congested(now)
    assert ours._rng.getstate() == ref.rng.getstate()
    assert ours._episode_rng.getstate() == ref.episode_rng.getstate()
    assert ours._windows == ref.windows
    assert congested > 0  # the congested branch was exercised


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_congested_matches_brute_force(profile):
    process = LatencyProcess(profile, random.Random(5))
    rng = random.Random(11)

    def brute(now):
        return any(start <= now < end for start, end in process._windows)

    queries = list(_instants(9, 3_000))
    process.congested(max(queries))
    # Exact window edges, and instants just either side of them.
    for start, end in list(process._windows):
        queries += [start, end, math.nextafter(start, -math.inf),
                    math.nextafter(end, -math.inf)]
    rng.shuffle(queries)
    queries += [rng.uniform(0.0, process._horizon * 1.5) for _ in range(2_000)]
    for now in queries:
        assert process.congested(now) == brute(now), now


def _pkt(rng):
    return Packet(op=OpType.READ, vssd_id=1, size_kb=rng.choice([0.1, 4.0, 9.5]))


@pytest.mark.parametrize("make", [
    FifoScheduler,
    FairQueueScheduler,
    PriorityScheduler,
    lambda: TokenBucketScheduler(flow_rate_kb_per_sec=2_000.0, burst_kb=8.0),
], ids=["fifo", "fq", "priority", "tb"])
def test_pass_through_is_enqueue_then_next(make):
    """``pass_through`` on an empty policy against ``enqueue`` + ``next``
    on a twin: the same ``ready``, the same state afterwards -- between
    backlogs the twins build and drain the slow way."""
    slow, fast = make(), make()
    rng = random.Random(2)
    now = 0.0
    flows = [f"flow-{i}" for i in range(5)]
    for _ in range(3_000):
        now += rng.choice([0.0, 1.0, 500.0, 3_000.0])
        flow = rng.choice(flows)
        priority = rng.randrange(8)
        roll = rng.random()
        if roll < 0.1:
            # A backlog, drained the slow way on both twins.
            backlog = [(_pkt(rng), rng.choice(flows), rng.randrange(8))
                       for _ in range(rng.randrange(1, 5))]
            for twin in (slow, fast):
                for packet, f, p in backlog:
                    twin.enqueue(packet, f, p)
                while len(twin):
                    twin.next(now)
            continue
        if roll < 0.15:
            slow.forget_flow(flow)
            fast.forget_flow(flow)
            continue
        packet = _pkt(rng)
        slow.enqueue(packet, flow, priority)
        sent, ready = slow.next(now)
        assert sent is packet
        assert fast.pass_through(packet, flow, priority, now) == ready
        assert len(fast) == len(slow) == 0
        if isinstance(slow, TokenBucketScheduler):
            assert fast._tokens == slow._tokens
            assert fast._last_refill == slow._last_refill
            assert list(fast._queues) == list(slow._queues)
        elif isinstance(slow, FairQueueScheduler):
            assert list(fast._queues) == list(slow._queues)
            assert list(fast._rotation) == list(slow._rotation)


def test_priority_pass_through_checks_the_level():
    with pytest.raises(ConfigError):
        PriorityScheduler(levels=4).pass_through(
            _pkt(random.Random(0)), "f", 4, 0.0)


def _scan_victim(ftl):
    """``select_victim()`` as a scan over every block: the reference
    for its per-chip stale-page counts."""
    pools = [(chip, [b for b in chip.blocks if b.invalid_count > 0], active)
             for chip, active in zip(ftl.chips, ftl._active)]
    pools += [(b.chip, [b.block], None) for b in ftl._borrowed.values()
              if b.block.invalid_count > 0 and b.block.is_full]
    best = None
    for chip, blocks, active in pools:
        for block in blocks:
            if block is active or block in ftl._lent:
                continue
            if best is None or block.invalid_count > best[0]:
                best = (block.invalid_count, chip, block)
    return None if best is None else (best[1], best[2].block_id)


@pytest.mark.parametrize("seed", range(8))
def test_greedy_select_victim_matches_the_scan(seed):
    """Small blocks make ties common; a loan puts borrowed and lent
    blocks in play.  Checked after every write, trim, page move and
    erase, with each chip's stale-page counts against its blocks."""
    rng = random.Random(seed)
    chips = [FlashChip(i, 6, 4) for i in range(3)]
    ftl = PageMappedFtl("a", chips[:2], 4, overprovision=0.25)
    lender = PageMappedFtl("b", chips[2:], 4, overprovision=0.25)
    lender.lend_free_blocks(2, ftl)
    ftls = [ftl, lender]

    def check():
        for each in ftls:
            victim = each.select_victim()
            got = None if victim is None else (victim.chip, victim.block_id)
            assert got == _scan_victim(each)
        for chip in chips:
            assert chip._stale_counts == [b.invalid_count for b in chip.blocks]

    for _ in range(600):
        target = rng.choice(ftls)
        roll = rng.random()
        try:
            if roll < 0.15:
                victim = target.select_victim()
                if victim is not None:
                    for lpn in target.victim_valid_lpns(victim):
                        target.migrate_page(lpn)
                        check()
                    target.commit_erase(victim)
            elif roll < 0.3:
                target.trim(rng.randrange(target.logical_pages))
            else:
                target.place_write(rng.randrange(target.logical_pages))
        except OutOfSpaceError:
            pass
        check()


def test_io_request_rank_is_priority_less_now():
    rng = random.Random(4)
    for _ in range(1_000):
        arrival, net, predict = (rng.uniform(0, 1e6), rng.uniform(0, 1e4),
                                 rng.uniform(0, 1e4))
        request = IoRequest("read", 1, 0, arrival, net, predict)
        assert request.rank == net + predict - arrival


def test_an_entry_past_the_horizon_keeps_its_place():
    """``run(until)`` puts the first entry past the horizon back with its
    key: entries at one instant still fire in scheduling order."""
    sim = Simulator()
    fired = []
    for tag in range(5):
        sim.schedule_at(10.0, lambda tag=tag: fired.append(tag))
    sim.schedule_at(5.0, lambda: fired.append("early"))
    assert sim.run(until=7.0) == 7.0
    assert fired == ["early"] and len(sim._heap) == 5
    sim.run(until=9.0)
    sim.run()
    assert fired == ["early", 0, 1, 2, 3, 4]
    assert sim.event_count == 6


def test_max_events_counts_from_the_run_start():
    sim = Simulator()
    for delay in range(10):
        sim.schedule_after(float(delay), lambda: None)
    sim.run(max_events=3)
    assert sim.event_count == 3 and sim.now == 2.0
    sim.run(max_events=4)
    assert sim.event_count == 7 and sim.now == 6.0
    sim.run(max_events=0)  # no bound
    assert sim.event_count == 10


def test_open_loop_stream_matches_library_draws():
    """The generator's inlined ``expovariate`` gap and its key and kind
    draws, against the library calls on a twin stream."""
    from repro.sim.rng import ZipfianSampler
    from repro.workloads.generator import OpenLoopGenerator
    from repro.workloads.spec import ycsb

    ours = OpenLoopGenerator(ycsb(0.3), key_space=500, rate_iops=1500.0,
                             rng=random.Random(8))
    twin = random.Random(8)
    zipf = ZipfianSampler(500, theta=ycsb(0.3).zipf_theta, rng=twin)
    for request in ours.requests(5_000):
        kind = "write" if twin.random() < 0.3 else "read"
        assert (request.kind, request.lpn) == (kind, zipf.sample())
        assert request.gap_us == twin.expovariate(1.0 / (1e6 / 1500.0))


def test_return_predictor_matches_a_running_sum():
    from collections import deque

    from repro.server.predictor import ReturnLatencyPredictor

    predictor = ReturnLatencyPredictor(window=7)
    rng = random.Random(6)
    windows, sums = {}, {}
    for _ in range(3_000):
        key = (rng.randrange(3), rng.choice(["read", "write"]))
        value = rng.expovariate(1.0 / 40.0)
        window = windows.setdefault(key, deque(maxlen=7))
        sums.setdefault(key, 0.0)
        if len(window) == 7:
            sums[key] -= window[0]
        window.append(value)
        sums[key] += value
        predictor.observe(*key, value)
        assert predictor.predict(*key) == sums[key] / len(window)
    with pytest.raises(ConfigError):
        predictor.observe(0, "scan", 1.0)
    with pytest.raises(ConfigError):
        predictor.predict(0, "scan")
