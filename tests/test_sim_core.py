"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import (
    AllOf,
    Event,
    Join,
    Process,
    Simulator,
    Timeout,
)


class TestSimulatorClock:
    def test_starts_at_zero(self):
        sim = Simulator()
        assert sim.now == 0.0

    def test_schedule_after_advances_clock(self):
        sim = Simulator()
        seen = []
        sim.schedule_after(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_schedule_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(10.0, lambda: seen.append("x"))
        sim.run()
        assert seen == ["x"] and sim.now == 10.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_after(3.0, lambda: order.append("c"))
        sim.schedule_after(1.0, lambda: order.append("a"))
        sim.schedule_after(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_is_fifo(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule_after(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_run_until_stops_clock_at_horizon(self):
        sim = Simulator()
        sim.schedule_after(100.0, lambda: None)
        final = sim.run(until=50.0)
        assert final == 50.0
        assert sim._heap[0][0] == 100.0

    def test_run_until_past_all_events(self):
        sim = Simulator()
        sim.schedule_after(10.0, lambda: None)
        assert sim.run(until=500.0) == 500.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_after(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule_after(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_schedule_at_orders_with_the_other_entry_points(self):
        # One heap, one sequence counter: (time, order of the call).
        sim = Simulator()
        order = []
        sim.schedule_at(2.0, lambda: order.append("at-2-first"))
        sim.schedule_after(2.0, lambda: order.append("after-2"))
        sim.schedule_at(2.0, lambda: order.append("at-2-last"))
        sim.schedule_at(1.0, lambda: order.append("at-1"))
        sim.run()
        assert order == ["at-1", "at-2-first", "after-2", "at-2-last"]
        assert sim.event_count == 4

    def test_schedule_at_refuses_the_past_and_hands_back_no_handle(self):
        sim = Simulator()
        sim.schedule_after(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)
        # Now itself is allowed; there is nothing to cancel it with.
        assert sim.schedule_at(5.0, lambda: None) is None
        assert sim.run() == 5.0 and sim.event_count == 2

    def test_max_events_budget(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule_after(float(i), lambda: None)
        sim.run(max_events=3)
        assert sim.event_count == 3


class TestStop:
    def test_stop_ends_run_at_that_instant(self):
        sim = Simulator()
        seen = []
        sim.schedule_after(5.0, lambda: (seen.append("a"), sim.stop()))
        sim.schedule_after(9.0, lambda: seen.append("late"))
        assert sim.run(until=100.0) == 5.0
        assert seen == ["a"] and sim.now == 5.0
        # The later event stayed queued and fires on the next run.
        assert sim._heap[0][0] == 9.0
        assert sim.run() == 9.0
        assert seen == ["a", "late"]

    def test_events_already_queued_for_the_instant_still_run(self):
        sim = Simulator()
        seen = []
        sim.schedule_after(5.0, sim.stop)
        sim.schedule_after(5.0, lambda: seen.append("same instant"))
        sim.schedule_after(5.0, lambda: sim.schedule_after(
            0.0, lambda: seen.append("queued after the stop")))
        sim.run()
        assert seen == ["same instant"] and sim.now == 5.0
        sim.run()
        assert seen == ["same instant", "queued after the stop"]
        assert sim.now == 5.0

    def test_stop_outside_run_is_a_no_op(self):
        sim = Simulator()
        sim.stop()
        assert not sim._heap
        seen = []
        sim.schedule_after(1.0, lambda: seen.append(1))
        sim.schedule_after(2.0, lambda: seen.append(2))
        assert sim.run() == 2.0
        assert seen == [1, 2]

    def test_stopping_twice_in_one_run_stops_once(self):
        sim = Simulator()
        sim.schedule_after(1.0, lambda: (sim.stop(), sim.stop()))
        sim.schedule_after(2.0, lambda: None)
        sim.run()
        assert sim.now == 1.0 and len(sim._heap) == 1
        assert sim.run() == 2.0

    def test_event_count_excludes_the_sentinel(self):
        sim = Simulator()
        sim.schedule_after(1.0, lambda: None)
        sim.schedule_after(2.0, sim.stop)
        sim.schedule_after(3.0, lambda: None)
        sim.run()
        assert sim.event_count == 2
        sim.run()
        assert sim.event_count == 3

    def test_stop_under_a_max_events_budget(self):
        sim = Simulator()
        sim.schedule_after(1.0, sim.stop)
        sim.schedule_after(1.0, lambda: None)
        sim.schedule_after(2.0, lambda: None)
        sim.run(max_events=10)
        assert sim.now == 1.0 and sim.event_count == 2

    def test_run_until_without_stop_is_unchanged(self):
        sim = Simulator()
        seen = []
        for delay in (10.0, 20.0, 60.0):
            sim.schedule_after(delay, lambda d=delay: seen.append(d))
        assert sim.run(until=50.0) == 50.0
        assert seen == [10.0, 20.0] and sim.event_count == 2
        assert sim.run(until=500.0) == 500.0
        assert seen == [10.0, 20.0, 60.0] and sim.event_count == 3

    def test_a_raising_callback_does_not_swallow_a_pending_stop(self):
        sim = Simulator()

        def boom():
            sim.stop()
            raise ValueError("boom")

        sim.schedule_after(1.0, boom)
        sim.schedule_after(2.0, lambda: None)
        with pytest.raises(ValueError):
            sim.run()
        # The stop is still owed: the next run ends at once, then all is normal.
        assert sim.run() == 1.0
        assert sim.run() == 2.0


class TestEvent:
    def test_succeed_delivers_value(self):
        sim = Simulator()
        ev = Event(sim)
        ev.succeed(42)
        assert ev.triggered and ev.ok and ev.value == 42

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = Event(sim).succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_raises_on_value_access(self):
        sim = Simulator()
        ev = Event(sim).fail(ValueError("boom"))
        assert ev.triggered and not ev.ok
        with pytest.raises(ValueError):
            _ = ev.value

    def test_callback_after_trigger_runs_immediately(self):
        sim = Simulator()
        ev = Event(sim).succeed("v")
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        assert got == ["v"]

    def test_value_before_trigger_is_error(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            _ = Event(sim).value


class TestProcess:
    def test_process_returns_value(self):
        sim = Simulator()

        def proc():
            yield Timeout(sim, 5.0)
            return "done"

        p = sim.spawn(proc())
        sim.run()
        assert p.value == "done"
        assert sim.now == 5.0

    def test_timeout_value_passthrough(self):
        sim = Simulator()
        got = []

        def proc():
            v = yield Timeout(sim, 1.0, value="payload")
            got.append(v)

        sim.spawn(proc())
        sim.run()
        assert got == ["payload"]

    def test_process_waits_on_process(self):
        sim = Simulator()

        def inner():
            yield Timeout(sim, 3.0)
            return 7

        def outer():
            v = yield sim.spawn(inner())
            return v * 2

        p = sim.spawn(outer())
        sim.run()
        assert p.value == 14

    def test_exception_propagates_to_waiter(self):
        sim = Simulator()

        def failing():
            yield Timeout(sim, 1.0)
            raise RuntimeError("inner failure")

        def outer():
            try:
                yield sim.spawn(failing())
            except RuntimeError as exc:
                return f"caught: {exc}"

        p = sim.spawn(outer())
        sim.run()
        assert p.value == "caught: inner failure"

    def test_yielding_non_event_fails_process(self):
        sim = Simulator()

        def bad():
            yield 42

        p = sim.spawn(bad())
        sim.run()
        assert p.triggered and not p.ok

    def test_spawn_rejects_non_generator(self):
        sim = Simulator()

        def not_a_generator():
            return 1

        with pytest.raises(SimulationError):
            Process(sim, not_a_generator)  # type: ignore[arg-type]

    def test_tight_loop_over_ready_events_does_not_recurse(self):
        # A process consuming thousands of immediately-available items must
        # not exhaust the interpreter stack.
        sim = Simulator()
        ready = [Event(sim).succeed(i) for i in range(5000)]
        total = []

        def consumer():
            for event in ready:
                item = yield event
                total.append(item)

        sim.spawn(consumer())
        sim.run()
        assert len(total) == 5000 and total[-1] == 4999

class TestComposites:
    def test_allof_collects_values(self):
        sim = Simulator()
        evs = [Timeout(sim, d, value=d) for d in (3.0, 1.0, 2.0)]
        combo = AllOf(sim, evs)
        sim.run()
        assert combo.value == [3.0, 1.0, 2.0]
        assert sim.now == 3.0

    def test_allof_empty_fires_immediately(self):
        sim = Simulator()
        combo = AllOf(sim, [])
        assert combo.triggered and combo.value == []

    def test_join_delivers_values_in_leg_order(self):
        sim = Simulator()
        joined = []
        join = Join(3, joined.append)
        for delay, leg in ((3.0, 0), (1.0, 1), (2.0, 2)):
            sim.schedule_after(delay, lambda leg=leg: join.arrive(leg, sim.now))
        sim.run(until=2.5)
        assert joined == []
        sim.run()
        assert joined == [[3.0, 1.0, 2.0]]


class TestRandomSource:
    def test_streams_are_deterministic(self):
        from repro.sim import RandomSource

        a = RandomSource(42).stream("net")
        b = RandomSource(42).stream("net")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent(self):
        from repro.sim import RandomSource

        src = RandomSource(42)
        net = src.stream("net")
        disk = src.stream("disk")
        assert [net.random() for _ in range(3)] != [disk.random() for _ in range(3)]

    def test_spawn_derives_child(self):
        from repro.sim import RandomSource

        a = RandomSource(1).spawn("server-0")
        b = RandomSource(1).spawn("server-0")
        c = RandomSource(1).spawn("server-1")
        assert a.seed == b.seed and a.seed != c.seed


class TestZipfian:
    def test_weights_sum_to_one(self):
        from repro.sim.rng import zipfian_weights

        weights = zipfian_weights(100)
        assert abs(sum(weights) - 1.0) < 1e-9

    def test_weights_decrease(self):
        from repro.sim.rng import zipfian_weights

        weights = zipfian_weights(50, theta=0.99)
        assert all(weights[i] >= weights[i + 1] for i in range(49))

    def test_sampler_skews_to_low_ranks(self):
        import random

        from repro.sim.rng import ZipfianSampler

        sampler = ZipfianSampler(1000, rng=random.Random(7))
        draws = [sampler.sample() for _ in range(2000)]
        head = sum(1 for d in draws if d < 100)
        assert head > len(draws) * 0.5  # top 10% of keys get most traffic

    def test_sampler_range(self):
        import random

        from repro.sim.rng import ZipfianSampler

        sampler = ZipfianSampler(10, rng=random.Random(3))
        assert all(0 <= sampler.sample() < 10 for _ in range(500))

    def test_zero_keys_rejected(self):
        from repro.sim.rng import zipfian_weights

        with pytest.raises(ValueError):
            zipfian_weights(0)
