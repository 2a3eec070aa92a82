"""Serving-layer tests: admission, sim-time bridge, and the TCP service.

Everything runs against a real (small) rack and, for the end-to-end
cases, a real listener on an ephemeral port -- these are the paths the
localhost benchmark exercises, minus the scale.
"""

import asyncio
import gc
import json
import socket
import struct
from functools import partial

import pytest

from repro.cluster.config import RackConfig, SystemType
from repro.errors import ConfigError
from repro.service import protocol
from repro.service.admission import AdmissionController, WallClockTokenBucket
from repro.service.bridge import SimTimeBridge
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import RackService

from tests import stats_schema


def small_config(**overrides) -> RackConfig:
    defaults = dict(
        system=SystemType("rackblox"), num_servers=2, num_pairs=2, seed=11
    )
    defaults.update(overrides)
    return RackConfig(**defaults)


# --------------------------------------------------------------- admission


class TestTokenBucket:
    def test_burst_then_exhaustion(self):
        bucket = WallClockTokenBucket(rate_per_sec=10.0, capacity=3, now=0.0)
        assert [bucket.try_take(now=0.0) for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refill_restores_tokens(self):
        bucket = WallClockTokenBucket(rate_per_sec=10.0, capacity=3, now=0.0)
        for _ in range(3):
            bucket.try_take(now=0.0)
        assert not bucket.try_take(now=0.0)
        # 0.2 s at 10 tokens/s refills two tokens.
        assert bucket.try_take(now=0.2)
        assert bucket.try_take(now=0.2)
        assert not bucket.try_take(now=0.2)

    def test_capacity_caps_refill(self):
        bucket = WallClockTokenBucket(rate_per_sec=1000.0, capacity=2, now=0.0)
        assert bucket.try_take(now=100.0)
        assert bucket.try_take(now=100.0)
        assert not bucket.try_take(now=100.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            WallClockTokenBucket(rate_per_sec=0.0, capacity=2)
        with pytest.raises(ConfigError):
            WallClockTokenBucket(rate_per_sec=1.0, capacity=0.5)


class TestAdmissionController:
    def test_queue_depth_cap_sheds(self):
        ctrl = AdmissionController(max_queue_depth=4)
        assert ctrl.try_admit("a", inflight=3)
        assert not ctrl.try_admit("a", inflight=4)
        assert not ctrl.try_admit("b", inflight=9)
        assert ctrl.stats()["shed_queue_full"] == 2.0
        assert ctrl.stats()["admitted"] == 1.0

    def test_per_client_rate_limit_is_isolated(self):
        ctrl = AdmissionController(
            max_queue_depth=100, client_rate_per_sec=5.0, client_burst=2.0
        )
        # Greedy client drains its bucket; the other client is untouched.
        assert ctrl.try_admit("greedy", 0, now=0.0)
        assert ctrl.try_admit("greedy", 0, now=0.0)
        assert not ctrl.try_admit("greedy", 0, now=0.0)
        assert ctrl.try_admit("polite", 0, now=0.0)
        assert ctrl.stats()["shed_rate_limited"] == 1.0

    def test_full_queue_does_not_burn_tokens(self):
        ctrl = AdmissionController(
            max_queue_depth=1, client_rate_per_sec=5.0, client_burst=1.0
        )
        assert not ctrl.try_admit("a", inflight=1, now=0.0)
        # The shed above was the depth gate; the token survives.
        assert ctrl.try_admit("a", inflight=0, now=0.0)

    def test_zero_rate_disables_metering(self):
        ctrl = AdmissionController(max_queue_depth=10, client_rate_per_sec=0.0)
        assert all(ctrl.try_admit("a", 0) for _ in range(100))


# ------------------------------------------------------------------ bridge


class TestSimTimeBridge:
    def test_read_and_write_complete_with_latency(self):
        async def scenario():
            bridge = SimTimeBridge(small_config())
            await bridge.start()
            try:
                read = await bridge.submit_read(0, 5)
                write = await bridge.submit_write(1, 9)
            finally:
                await bridge.stop()
            return read, write

        read, write = asyncio.run(scenario())
        assert read["latency_us"] > 0
        assert write["latency_us"] > 0
        assert write["replicas"] == 2

    def test_kv_round_trip_through_bridge(self):
        async def scenario():
            bridge = SimTimeBridge(small_config())
            await bridge.start()
            try:
                await bridge.submit_put("alpha", "1")
                hit = await bridge.submit_get("alpha")
                miss = await bridge.submit_get("beta")
            finally:
                await bridge.stop()
            return hit, miss

        hit, miss = asyncio.run(scenario())
        assert hit["found"] and hit["value"] == "1"
        assert not miss["found"]

    def test_pair_index_validated(self):
        async def scenario():
            bridge = SimTimeBridge(small_config())
            await bridge.start()
            try:
                with pytest.raises(ConfigError):
                    bridge.submit_read(99, 0)
            finally:
                await bridge.stop()

        asyncio.run(scenario())

    def test_lpn_validated_and_later_requests_unharmed(self):
        async def scenario():
            bridge = SimTimeBridge(small_config())
            await bridge.start()
            try:
                with pytest.raises(ConfigError):
                    bridge.submit_read(0, 4_000_000_000)
                with pytest.raises(ConfigError):
                    bridge.submit_write(0, -1)
                return await bridge.submit_read(0, 5)
            finally:
                await bridge.stop()

        assert asyncio.run(scenario())["latency_us"] > 0

    def test_bad_address_past_the_edge_fails_alone(self):
        # A request that reaches the device with an unmappable address
        # (here injected below the bridge's own check) times out by
        # itself; the pump and the next request are unharmed.
        async def scenario():
            bridge = SimTimeBridge(small_config(), request_timeout_us=50_000.0)
            await bridge.start()
            try:
                rack = bridge.rack
                bad = bridge._track(
                    "read", partial(rack.start_read, rack.pairs[0], 10**12),
                    lambda pkt: {},
                )
                with pytest.raises(asyncio.TimeoutError):
                    await bad
                return await bridge.submit_read(0, 5)
            finally:
                await bridge.stop()

        assert asyncio.run(scenario())["latency_us"] > 0

    def test_idle_bridge_freezes_sim_clock(self):
        async def scenario():
            bridge = SimTimeBridge(small_config())
            await bridge.start()
            try:
                await bridge.submit_read(0, 1)
                frozen = bridge.rack.sim.now
                # Ample wall time with nothing in flight: the pump parks.
                await asyncio.sleep(0.05)
                assert bridge.rack.sim.now == frozen
            finally:
                await bridge.stop()

        asyncio.run(scenario())

    def test_pump_turn_ends_at_the_last_live_completion(self):
        async def scenario():
            bridge = SimTimeBridge(small_config(), chunk_us=8000.0)
            await bridge.start()
            try:
                sim = bridge.rack.sim
                t0, turns = sim.now, bridge.sim_chunks
                read = await bridge.submit_read(0, 5)
                # Frozen at the completion, not at the 8 ms turn bound.
                assert sim.now == pytest.approx(t0 + read["latency_us"])
                assert bridge.sim_chunks == turns + 1

                t0, turns = sim.now, bridge.sim_chunks
                both = await asyncio.gather(
                    bridge.submit_read(0, 6), bridge.submit_read(1, 7)
                )
                fast, slow = sorted(r["latency_us"] for r in both)
                assert fast < slow
                # One turn served both: it did not stop at the first.
                assert bridge.sim_chunks == turns + 1
                assert sim.now == pytest.approx(t0 + slow)
            finally:
                await bridge.stop()

        asyncio.run(scenario())

    def test_pump_turn_covers_the_flush_of_an_acked_write(self):
        # The ack comes when both DRAM copies exist; the turn runs on
        # until they reached flash, so the flushes trail this write and
        # do not land on whatever request comes next.
        async def scenario():
            bridge = SimTimeBridge(small_config(), chunk_us=50_000.0)
            await bridge.start()
            try:
                sim = bridge.rack.sim
                t0, turns = sim.now, bridge.sim_chunks
                write = await bridge.submit_write(0, 9)
                caches = [s.write_cache for s in bridge.rack.servers]
                assert sum(c.flushes for c in caches) == 2
                assert all(c.clean for c in caches)
                assert bridge.sim_chunks == turns + 1
                assert t0 + write["latency_us"] < sim.now < t0 + 50_000.0
            finally:
                await bridge.stop()

        asyncio.run(scenario())

    def test_kv_point_operations_enter_the_rack_at_submit(self):
        # submit_get/submit_put drive the store's callback cores: a lone
        # operation is served in one pump turn and costs exactly one
        # event -- the process's start tick -- less than the same
        # operation through the store's generator adapter.
        async def served(through_adapter):
            bridge = SimTimeBridge(small_config(), chunk_us=50_000.0)
            await bridge.start()
            try:
                sim, kv, out = bridge.rack.sim, bridge.kv, []
                for name, args in (("put", ("k", "v")), ("get", ("k",))):
                    events, turns = sim.event_count, bridge.sim_chunks
                    if through_adapter:
                        process = sim.spawn(getattr(kv, name)(*args))
                        latency = await bridge._track(
                            None,
                            lambda then, p=process: p.add_callback(
                                lambda done: then(done.value)),
                            lambda value: value)
                        latency = latency[1] if name == "get" else latency
                    else:
                        submit = getattr(bridge, "submit_" + name)
                        latency = (await submit(*args))["latency_us"]
                    assert bridge.sim_chunks == turns + 1
                    out.append((latency, sim.event_count - events))
                return out
            finally:
                await bridge.stop()

        cores = asyncio.run(served(through_adapter=False))
        adapters = asyncio.run(served(through_adapter=True))
        for (latency, events), (adapter_latency, adapter_events) in zip(
                cores, adapters):
            assert latency == adapter_latency
            assert events == adapter_events - 1

    def test_a_served_kv_operation_is_recorded_once(self):
        # The store records into the bridge's own collector and the
        # bridge does not record KV operations again: N operations leave
        # a count of N, and the latencies the caller was answered with
        # sum to the collector's exact sum.
        async def scenario():
            bridge = SimTimeBridge(small_config())
            await bridge.start()
            try:
                seen = {"read": [], "write": []}
                for i in range(5):
                    put = await bridge.submit_put(f"k{i}", "v")
                    seen["write"].append(put["latency_us"])
                    got = await bridge.submit_get(f"k{i}")
                    seen["read"].append(got["latency_us"])
                deleted = await bridge.submit_delete("k0")
                seen["write"].append(deleted["latency_us"])
                scanned = await bridge.submit_scan("zz", 3)  # selects nothing
                seen["read"].append(scanned["latency_us"])
                return bridge, seen
            finally:
                await bridge.stop()

        bridge, seen = asyncio.run(scenario())
        assert bridge.kv.metrics is bridge.metrics
        for kind, recorder in (("read", bridge.metrics.read_total),
                               ("write", bridge.metrics.write_total)):
            assert recorder.count == len(seen[kind])
            assert recorder.sum == sum(seen[kind])
        summary = bridge.stats_payload()["metrics"]
        assert summary["read_count"] == 6 and summary["write_count"] == 6

    def test_oversized_put_is_refused_with_nothing_left_registered(self):
        async def scenario():
            bridge = SimTimeBridge(small_config())
            await bridge.start()
            try:
                with pytest.raises(ConfigError):
                    bridge.submit_put("big", "x" * 5000)
                assert bridge.inflight == 0 and bridge.submitted == 0
                return await bridge.submit_put("k", "v")
            finally:
                await bridge.stop()

        assert asyncio.run(scenario())["latency_us"] > 0

    def test_paced_pump_sleeps_for_the_time_advanced(self, monkeypatch):
        # The paced pump queues its next turn with ``call_later``; record
        # the delays it asks for.
        slept = []

        async def scenario():
            # A thousandth of real time: the delay dwarfs the host time
            # the turn itself took.
            bridge = SimTimeBridge(small_config(), chunk_us=8000.0, pace=1e-3)
            await bridge.start()
            loop = asyncio.get_running_loop()
            real_call_later = loop.call_later

            def recording_call_later(delay, callback, *args, **kwargs):
                if callback == bridge._turn:
                    slept.append(delay)
                return real_call_later(delay, callback, *args, **kwargs)

            monkeypatch.setattr(loop, "call_later", recording_call_later)
            try:
                read = await bridge.submit_read(0, 5)
            finally:
                monkeypatch.undo()
                await bridge.stop()
            return read

        read = asyncio.run(scenario())
        assert len(slept) == 1
        assert slept[0] == pytest.approx(read["latency_us"] / 1e6 / 1e-3, rel=0.1)

    def test_pump_contains_an_exception_from_the_simulator(self, caplog):
        def boom():
            raise ValueError("boom")

        async def scenario():
            bridge = SimTimeBridge(small_config())
            await bridge.start()
            try:
                bridge.rack.sim.schedule_after(1.0, boom)
                lost = await asyncio.gather(
                    bridge.submit_read(0, 1), bridge.submit_write(1, 2),
                    return_exceptions=True,
                )
                # Costs the requests live in that turn, nothing after it.
                after = await bridge.submit_read(0, 1)
                assert bridge.inflight == 0
            finally:
                await asyncio.wait_for(bridge.stop(), timeout=5.0)
            return lost, after

        with caplog.at_level("ERROR", logger="repro.service.bridge"):
            lost, after = asyncio.run(scenario())
        assert [type(exc) for exc in lost] == [ValueError, ValueError]
        assert after["latency_us"] > 0
        assert len(caplog.records) == 1
        assert "boom" in caplog.text

    def test_timeout_expires_undeliverable_request(self):
        async def scenario():
            bridge = SimTimeBridge(
                small_config(), request_timeout_us=50_000.0
            )
            await bridge.start()
            try:
                # Crash the primary's server, then read from it: the rack
                # drops the packet at the dead NIC, so only the bridge's
                # sim-time deadline can fail the future.
                pair = bridge.rack.pairs[0]
                bridge.rack.server_by_ip[pair.primary_server_ip].alive = False
                with pytest.raises(asyncio.TimeoutError):
                    await bridge.submit_read(0, 1)
                assert bridge.timed_out == 1
            finally:
                await bridge.stop(drain=False)

        asyncio.run(scenario())

    def test_stats_payload_shape(self):
        async def scenario():
            bridge = SimTimeBridge(small_config())
            await bridge.start()
            try:
                await bridge.submit_read(0, 1)
                return bridge.stats_payload()
            finally:
                await bridge.stop()

        payload = asyncio.run(scenario())
        assert payload["bridge"]["completed"] == 1.0
        assert "read_avg_us" in payload["metrics"]
        assert payload["kvstore"]["keys"] == 0.0


# ----------------------------------------------------------------- service


async def _start_service(**kwargs) -> RackService:
    service = RackService(small_config(), port=0, **kwargs)
    await service.start()
    return service


class TestRackServiceEndToEnd:
    def test_full_request_mix_over_tcp(self):
        async def scenario():
            service = await _start_service()
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    pong = await c.ping()
                    read = await c.read(0, 3)
                    write = await c.write(1, 4)
                    await c.put("k", "v")
                    got = await c.get("k")
                    scanned = await c.scan("", 10)
                    stats = await c.stats()
            finally:
                await service.stop()
            return pong, read, write, got, scanned, stats

        pong, read, write, got, scanned, stats = asyncio.run(scenario())
        assert pong["pong"] is True
        assert read["latency_us"] > 0
        assert write["replicas"] == 2
        assert got["value"] == "v"
        assert scanned["count"] == 1
        assert stats["bridge"]["completed"] >= 4.0
        assert stats["admission"]["admitted"] >= 4.0

    def test_every_connection_reads_in_heap_sized_chunks(self):
        # asyncio's selector transport asks ``recv`` for 256 KiB, which
        # glibc maps and unmaps on every read (two page faults per
        # request at queue depth 1); both ends of a served connection
        # read at most protocol.READ_BYTES at a time instead.
        async def scenario():
            service = await _start_service()
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    await c.read(0, 1)
                    client = c._writer.transport
                    # The server's end of this connection: on this loop,
                    # with the client's address as its peer.
                    loop = asyncio.get_running_loop()
                    server = [obj for obj in gc.get_objects()
                              if isinstance(obj, asyncio.Transport)
                              and getattr(obj, "_loop", None) is loop
                              and obj.get_extra_info("peername")
                              == client.get_extra_info("sockname")]
                    return [client.max_size] + [t.max_size for t in server]
            finally:
                await service.stop()

        # The client's end and the server's, each under glibc's default
        # mmap threshold (128 KiB).
        assert asyncio.run(scenario()) == [protocol.READ_BYTES] * 2
        assert protocol.READ_BYTES < 128 * 1024

    def test_pipelined_requests_on_one_connection(self):
        async def scenario():
            service = await _start_service()
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    results = await asyncio.gather(
                        *(c.read(i % 2, i) for i in range(16))
                    )
            finally:
                await service.stop()
            return results

        results = asyncio.run(scenario())
        assert len(results) == 16
        assert all(r["latency_us"] > 0 for r in results)

    def test_bad_requests_answered_not_dropped(self):
        async def scenario():
            service = await _start_service()
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    codes = []
                    for payload in (
                        {"type": "frobnicate"},
                        {"type": "read", "pair": 99, "lpn": 0},
                        {"type": "read"},  # missing operands
                        {"type": "get"},   # missing key
                    ):
                        try:
                            await c.request(payload)
                        except ServiceError as exc:
                            codes.append(exc.code)
                    # The connection survives all of it.
                    pong = await c.ping()
            finally:
                await service.stop()
            return codes, pong

        codes, pong = asyncio.run(scenario())
        assert codes == ["BAD_REQUEST"] * 4
        assert pong["pong"] is True

    def test_queue_overflow_sheds_busy(self):
        async def scenario():
            service = await _start_service(
                admission=AdmissionController(max_queue_depth=4)
            )
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    outcomes = await asyncio.gather(
                        *(c.read(0, i) for i in range(64)),
                        return_exceptions=True,
                    )
            finally:
                await service.stop()
            return outcomes, service.admission.stats()

        outcomes, stats = asyncio.run(scenario())
        ok = [r for r in outcomes if isinstance(r, dict)]
        busy = [
            r for r in outcomes
            if isinstance(r, ServiceError) and r.is_busy
        ]
        unexpected = [
            r for r in outcomes
            if not isinstance(r, dict)
            and not (isinstance(r, ServiceError) and r.is_busy)
        ]
        assert not unexpected
        assert busy, "overflow must shed with BUSY"
        assert ok, "requests within the cap must still complete"
        assert stats["shed_queue_full"] == len(busy)

    def test_graceful_stop_drains_inflight(self):
        async def scenario():
            service = await _start_service()
            client = await ServiceClient("127.0.0.1", service.port).connect()
            try:
                futures = [
                    asyncio.ensure_future(client.read(0, i)) for i in range(8)
                ]
                # Requests not yet read off the socket when a drain starts
                # are owed nothing; wait until all eight are live in the
                # bridge so the drain guarantee is what's under test.
                while service.bridge.submitted < 8:
                    await asyncio.sleep(0.001)
                await service.stop()
                results = await asyncio.gather(
                    *futures, return_exceptions=True
                )
            finally:
                await client.close()
            return results

        results = asyncio.run(scenario())
        completed = [r for r in results if isinstance(r, dict)]
        assert len(completed) == 8, f"drain lost requests: {results}"

    def test_draining_server_answers_shutting_down(self):
        async def scenario():
            service = await _start_service()
            async with ServiceClient("127.0.0.1", service.port) as c:
                await c.ping()
                service._draining = True
                try:
                    await c.read(0, 1)
                except ServiceError as exc:
                    return exc.code
                finally:
                    service._draining = False
                    await service.stop()
            return None

        assert asyncio.run(scenario()) == "SHUTTING_DOWN"

    def test_malformed_frame_gets_bad_request_and_close(self):
        async def scenario():
            service = await _start_service()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                writer.write(b"\x00\x00\x00\x05nope!")
                data = await asyncio.wait_for(reader.read(4096), timeout=5.0)
                eof = await asyncio.wait_for(reader.read(4096), timeout=5.0)
                writer.close()
            finally:
                await service.stop()
            return data, eof

        data, eof = asyncio.run(scenario())
        assert b"BAD_REQUEST" in data
        assert eof == b""  # the server hung up after the framing error


def _server_transport(client: socket.socket) -> asyncio.Transport:
    """The server's end of ``client``'s connection, on the running loop."""
    loop = asyncio.get_running_loop()
    sockname = client.getsockname()
    return next(obj for obj in gc.get_objects()
                if isinstance(obj, asyncio.Transport)
                and getattr(obj, "_loop", None) is loop
                and obj.get_extra_info("peername") == sockname)


def _blocking_calls(port: int, requests) -> list:
    """Send each request over a plain blocking socket and wait for its
    answer before the next: queue depth 1, no asyncio on this side."""
    answers = []
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        stream = sock.makefile("rb")
        for request in requests:
            sock.sendall(protocol.encode_frame(request))
            (length,) = struct.unpack(">I", stream.read(4))
            answers.append(json.loads(stream.read(length)))
    return answers


class TestOneLoopHop:
    """The live front end is callback-native: a connection is an
    ``asyncio.Protocol``, the pump a loop callback, a completion a
    ``then`` called inside the turn."""

    def test_serving_creates_no_task_or_future_per_request(self):
        n = 200
        requests = [{"type": "put", "key": "k", "value": "v", "id": 0}]
        requests += [{"type": "read", "pair": i % 2, "lpn": i, "id": 1 + i}
                     for i in range(n)]
        requests += [{"type": "get", "key": "k", "id": 1 + n + i}
                     for i in range(n)]

        async def scenario():
            service = await _start_service()
            loop = asyncio.get_running_loop()
            # No pump task, nor any other, besides this test's own.
            tasks = asyncio.all_tasks()
            owned = [value for value in vars(service.bridge).values()
                     if isinstance(value, asyncio.Task)]
            created = {"tasks": 0, "futures": 0}
            create_future = loop.create_future

            def counting_future():
                created["futures"] += 1
                return create_future()

            def counting_task(loop, coro, **kwargs):
                created["tasks"] += 1
                return asyncio.Task(coro, loop=loop, **kwargs)

            loop.create_future = counting_future
            loop.set_task_factory(counting_task)
            try:
                answers = await loop.run_in_executor(
                    None, _blocking_calls, service.port, requests)
            finally:
                del loop.create_future
                loop.set_task_factory(None)
                await service.stop()
            return tasks, owned, created, answers

        tasks, owned, created, answers = asyncio.run(scenario())
        assert all(answer["ok"] for answer in answers)
        assert [a["id"] for a in answers] == [r["id"] for r in requests]
        assert all(a["latency_us"] > 0 for a in answers[1:1 + n])
        assert all(a["value"] == "v" for a in answers[1 + n:])
        assert len(tasks) == 1 and not owned
        # All of it per connection or per call: asyncio's own accept
        # path (one task, one waiter) and the executor hand-off.
        assert created == {"tasks": 1, "futures": 2}

    def test_a_client_that_never_reads_stalls_only_itself(self):
        # A client pipelines pings and never reads an answer.  Pings skip
        # admission, so nothing but the transport bounds their answers:
        # past its high-water mark the server stops reading from that
        # connection, and the answers it holds stay bounded.
        pings = b"".join(protocol.encode_frame({"type": "ping", "id": i})
                         for i in range(100_000))
        bound = 512 * 1024

        def pipeline(sock: socket.socket) -> int:
            sent = 0
            try:
                while sent < len(pings):
                    sent += sock.send(pings[sent:sent + 65536])
            except TimeoutError:  # the server stopped reading: stalled
                pass
            return sent

        async def scenario():
            service = await _start_service()
            loop = asyncio.get_running_loop()
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            try:
                await loop.sock_connect(sock, ("127.0.0.1", service.port))
                sock.settimeout(0.5)
                while service.connections_accepted == 0:
                    await asyncio.sleep(0.001)
                server = _server_transport(sock)
                # Small kernel buffers at both ends, so what is held for
                # this reader is held in the server process, on any host.
                server.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                sending = loop.run_in_executor(None, pipeline, sock)
                peak = 0
                while not sending.done():
                    peak = max(peak, server.get_write_buffer_size())
                    await asyncio.sleep(0.005)
                for _ in range(40):  # whatever the kernel still holds
                    peak = max(peak, server.get_write_buffer_size())
                    await asyncio.sleep(0.005)
                # The healthy client next to it is served as usual.
                async with ServiceClient("127.0.0.1", service.port) as c:
                    pong = await c.ping()
                return peak, pong
            finally:
                sock.close()
                await service.stop()

        peak, pong = asyncio.run(scenario())
        assert pong["pong"] is True
        assert peak < bound, f"{peak} answer bytes held for a stalled reader"


# ------------------------------------------------------- multi-tenant QoS


@pytest.mark.qos
class TestSimulatedPathPerConnection:
    """A connection's raw requests ride one simulated network path, named
    by its accept ordinal -- not by the peer's ephemeral port, and not by
    whatever ``client`` strings its requests carry."""

    def test_client_strings_do_not_name_paths_and_closing_releases_them(self):
        async def scenario():
            service = RackService(
                small_config(network_scheduler="tb"), port=0)
            await service.start()
            rack = service.bridge.rack
            port = next(iter(rack._egress.values())).scheduler
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    for i in range(500):
                        await c.request({
                            "type": "read" if i % 4 else "write",
                            "pair": i % 2, "lpn": i,
                            "client": f"127.0.0.1:{40000 + i}"})
                    assert set(rack._client_latency) == {"conn-1"}
                    assert set(port._queues) <= {"conn-1"}
                    for _ in range(20):
                        async with ServiceClient("127.0.0.1",
                                                 service.port) as other:
                            await other.read(0, 1)
                    for _ in range(50):  # the closed handlers' finally
                        if len(rack._client_latency) == 1:
                            break
                        await asyncio.sleep(0.01)
                    assert set(rack._client_latency) == {"conn-1"}
                    admitted = service.admission.stats()["admitted"]
                for _ in range(50):
                    if not rack._client_latency:
                        break
                    await asyncio.sleep(0.01)
                assert not rack._client_latency and not port._queues
                assert service.connections_accepted == 21
                return admitted
            finally:
                await service.stop()

        assert asyncio.run(scenario()) == 520.0

    def test_seeded_latencies_do_not_depend_on_the_peer_port(self):
        # Two services with one seed, each answering the same QD1 reads on
        # its first connection: the kernel picks a different ephemeral
        # port per run, the simulated latencies are identical.
        async def first_reads():
            service = await _start_service()
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    peer = c._writer.get_extra_info("sockname")[1]
                    return peer, [(await c.read(i % 2, 3 * i))["latency_us"]
                                  for i in range(24)]
            finally:
                await service.stop()

        (port_a, run_a), (port_b, run_b) = (
            asyncio.run(first_reads()), asyncio.run(first_reads()))
        assert run_a == run_b and len(set(run_a)) > 12
        assert port_a != port_b


class TestMultiTenantServingEndToEnd:
    """The tenant-aware serving path over a real TCP connection: the
    ``hello`` tenant field, the QoS gate, and the DRAM read cache."""

    @staticmethod
    async def _start_tenant_service():
        from repro.service.qos import QosScheduler, TenantSpec
        from repro.service.readcache import ReadCache

        qos = QosScheduler([
            TenantSpec("gold", weight=2, cache_share=2),
            TenantSpec("metered", rate_per_sec=5, burst=1),
        ])
        cache = ReadCache(256, shares=qos.cache_shares())
        return await _start_service(qos=qos, read_cache=cache)

    def test_hello_binds_tenant_and_cache_serves_hot_reads(self):
        from repro.service.client import ClientConfig
        from repro.service.server import CACHE_HIT_LATENCY_US

        async def scenario():
            service = await self._start_tenant_service()
            try:
                c = ServiceClient("127.0.0.1", service.port, "t",
                                  config=ClientConfig(tenant="gold"))
                await c.connect()
                try:
                    hello = c.server_info
                    await c.put("hot", "v1")
                    first = await c.get("hot")     # miss + fill
                    second = await c.get("hot")    # DRAM hit
                    await c.put("hot", "v2")       # invalidates
                    third = await c.get("hot")     # fresh, from the rack
                    stats = await c.stats()
                finally:
                    await c.close()
            finally:
                await service.stop()
            return hello, first, second, third, stats

        hello, first, second, third, stats = asyncio.run(scenario())
        assert hello["tenant"] == "gold"
        assert "qos" in hello["capabilities"]
        assert first["latency_us"] != CACHE_HIT_LATENCY_US
        assert second["latency_us"] == CACHE_HIT_LATENCY_US
        assert second["value"] == "v1"
        assert third["value"] == "v2"              # never the cached v1
        assert stats["readcache"]["hits"] >= 1.0
        assert stats["tenants"]["gold"]["admitted"] >= 4.0
        stats_schema.validate_stats(stats, client=True)

    def test_undeclared_tenant_rejected_at_hello(self):
        from repro.service.client import ClientConfig

        async def scenario():
            service = await self._start_tenant_service()
            try:
                c = ServiceClient("127.0.0.1", service.port, "t",
                                  config=ClientConfig(tenant="nobody"))
                with pytest.raises(ServiceError) as err:
                    await c.connect()
                await c.close()
                return err.value
            finally:
                await service.stop()

        exc = asyncio.run(scenario())
        assert exc.code == "BAD_REQUEST"
        assert "unknown tenant" in str(exc)

    def test_metered_tenant_is_shed_busy(self):
        from repro.service.client import ClientConfig

        async def scenario():
            service = await self._start_tenant_service()
            try:
                c = ServiceClient("127.0.0.1", service.port, "t",
                                  config=ClientConfig(tenant="metered"))
                await c.connect()
                busy = 0
                try:
                    for i in range(10):
                        try:
                            await c.get(f"k{i}")
                        except ServiceError as exc:
                            assert exc.is_busy
                            assert "QoS budget" in str(exc)
                            busy += 1
                finally:
                    await c.close()
                return busy
            finally:
                await service.stop()

        busy = asyncio.run(scenario())
        # burst 1 at 5/s: nearly everything past the first is shed.
        assert busy >= 5

    def test_timed_out_put_still_invalidates_its_key(self):
        # The bridge answers TIMEOUT at the request's sim deadline, but
        # the simulator still applies the put a little later.  The
        # cached pre-write value must not outlive that: a submitted
        # put invalidates its key on every outcome, not only success.
        from repro.service.client import ClientConfig

        async def scenario():
            from repro.service.qos import QosScheduler, TenantSpec
            from repro.service.readcache import ReadCache

            qos = QosScheduler([TenantSpec("gold", cache_share=2)])
            cache = ReadCache(256, shares=qos.cache_shares())
            service = await _start_service(qos=qos, read_cache=cache,
                                           chunk_us=50.0)
            bridge = service.bridge
            try:
                c = ServiceClient("127.0.0.1", service.port, "t",
                                  config=ClientConfig(tenant="gold"))
                await c.connect()
                try:
                    await c.put("K", "v1")
                    await c.get("K")               # miss + fill
                    hit = await c.get("K")         # DRAM hit
                    patient = bridge.request_timeout_us
                    bridge.request_timeout_us = 1.0
                    try:
                        with pytest.raises(ServiceError) as err:
                            await c.put("K", "v2")
                    finally:
                        bridge.request_timeout_us = patient
                    for lpn in range(64):          # let the late put land
                        if bridge.kv._data.get("K") == "v2":
                            break
                        await c.read(0, lpn)
                    stored = bridge.kv._data.get("K")
                    after = await c.get("K")
                finally:
                    await c.close()
            finally:
                await service.stop()
            return hit, err.value, stored, after

        hit, timeout, stored, after = asyncio.run(scenario())
        assert hit["value"] == "v1" and hit["latency_us"] == 1.0
        assert timeout.code == "TIMEOUT"
        assert stored == "v2", "the simulator never applied the late put"
        assert after["value"] == "v2"              # never the cached v1



class TestClientConfig:
    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="frobnicate"):
            ServiceClient("127.0.0.1", 1, frobnicate=True)

    def test_config_validation(self):
        from repro.service.client import ClientConfig

        with pytest.raises(ValueError, match="wire_protocol"):
            ClientConfig(wire_protocol="carrier-pigeon")
        with pytest.raises(ValueError, match="tenant"):
            ClientConfig(tenant="")
        with pytest.raises(ValueError, match="max_retries"):
            ClientConfig(max_retries=-1)
