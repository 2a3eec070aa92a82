"""Edge-case tests for the workload client."""

import os

from repro.chaos.client import ChaosClient
from repro.chaos.schedule import FaultSchedule
from repro.cluster import Client, Rack, RackConfig, SystemType
from repro.experiments.runner import run_until
from repro.metrics import ExperimentMetrics
from repro.workloads import OpenLoopGenerator, ycsb

_CRASH_RECOVER = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "crash_recover.json"
)


def make_world():
    config = RackConfig(system=SystemType.RACKBLOX, num_servers=3,
                        num_pairs=3, seed=77)
    rack = Rack(config)
    metrics = ExperimentMetrics()
    pair = rack.pairs[0]
    generator = OpenLoopGenerator(
        ycsb(0.5), key_space=rack.working_set_pages(pair),
        rate_iops=2000.0, rng=rack.rng.stream("c"),
    )
    client = Client(rack, "client-0", pair, generator, metrics)
    return rack, client, metrics


class TestClientEdges:
    def test_zero_requests_rejected(self):
        rack, client, _ = make_world()
        proc = rack.sim.spawn(client.run(0))
        rack.sim.run(until=1000.0)
        assert proc.triggered and not proc.ok  # ConfigError propagated

    def test_completion_counting(self):
        rack, client, metrics = make_world()
        proc = rack.sim.spawn(client.run(50))
        run_until(rack.sim, proc)
        assert client.issued == 50
        assert client.completed == 50
        assert proc.value == 50
        total = metrics.read_total.count + metrics.write_total.count
        assert total == 50

    def test_both_replicas_dead_write_degrades_gracefully(self):
        rack, client, metrics = make_world()
        # Client's view: both replica servers dead.
        rack.failed_ips.add(client.pair.primary_server_ip)
        rack.failed_ips.add(client.pair.replica_server_ip)
        write_only_gen = OpenLoopGenerator(
            ycsb(1.0), key_space=64, rate_iops=5000.0,
            rng=rack.rng.stream("w"),
        )
        client.generator = write_only_gen
        proc = rack.sim.spawn(client.run(20))
        run_until(rack.sim, proc)
        # All ops 'complete' (handed to the out-of-rack path) without
        # hanging the drain loop; nothing recorded as a local write.
        assert client.completed == 20
        assert metrics.write_total.count == 0

    def test_storage_breakdown_propagates(self):
        rack, client, metrics = make_world()
        proc = rack.sim.spawn(client.run(40))
        run_until(rack.sim, proc)
        assert metrics.read_storage.count == metrics.read_total.count
        assert metrics.write_storage.count == metrics.write_total.count


class _CountingResumes:
    """A generator proxy counting how often its process resumed it."""

    def __init__(self, generator):
        self.generator = generator
        self.resumes = 0

    def send(self, value):
        self.resumes += 1
        return self.generator.send(value)

    def throw(self, exc):
        return self.generator.throw(exc)


class _Stoppable:
    """A request stream the caller can cut short (the benchmark's shape)."""

    def __init__(self, inner):
        self.inner = inner
        self.stopped = False

    def requests(self, count):
        for request in self.inner.requests(count):
            if self.stopped:
                return
            yield request


class TestClientDrain:
    """``Client.run`` is one process waiting once: arrivals and
    completions are callbacks, and the process wakes when the stream is
    exhausted and the last response is back."""

    def test_run_wakes_once_after_the_last_response(self):
        rack, client, _ = make_world()
        finishes = []
        client.metrics = type("Recorder", (), {
            "record": lambda self, kind, total_us, at, storage_us=None:
                finishes.append(at)})()
        run = _CountingResumes(client.run(60))
        proc = rack.sim.spawn(run)
        done_at = []
        proc.add_callback(lambda _: done_at.append(rack.sim.now))
        run_until(rack.sim, proc)
        assert proc.value == client.completed == client.issued == 60
        assert run.resumes == 2  # started, then woken once at the end
        assert done_at == [max(finishes)]

    def test_a_stopped_stream_drains(self):
        rack, client, metrics = make_world()
        stream = _Stoppable(client.generator)
        client.generator = stream
        proc = rack.sim.spawn(client.run(10 ** 6))
        rack.sim.run(until=20_000.0)
        stream.stopped = True
        run_until(rack.sim, proc)
        assert 0 < client.issued == client.completed == proc.value
        assert metrics.read_total.count + metrics.write_total.count == proc.value

    def test_an_empty_stream_returns_without_waiting(self):
        rack, client, _ = make_world()
        stream = _Stoppable(client.generator)
        stream.stopped = True
        client.generator = stream
        proc = rack.sim.spawn(client.run(5))
        rack.sim.run(until=1.0)
        assert proc.ok and proc.value == 0

    def test_chaos_client_drains(self):
        config = RackConfig(
            system=SystemType.RACKBLOX, num_servers=3, num_pairs=3, seed=11,
            fault_schedule=FaultSchedule.from_json_file(_CRASH_RECOVER),
        )
        rack = Rack(config)
        metrics = ExperimentMetrics()
        pair = rack.pairs[0]
        generator = OpenLoopGenerator(
            ycsb(0.5), key_space=rack.working_set_pages(pair),
            rate_iops=3000.0, rng=rack.rng.stream("c"),
        )
        client = ChaosClient(rack, "client-0", pair, generator, metrics)
        proc = rack.sim.spawn(client.run(300))
        run_until(rack.sim, proc)
        assert proc.value == client.completed == client.issued == 300
