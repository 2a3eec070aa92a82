"""Hello negotiation matrix (satellite #3, PR 6).

Three fleets against the same servers:

* a **v1-only client** that never says hello (or says ``v: 1``) must see
  a byte-for-byte JSON wire -- not a single binary frame, ever;
* a **bin-capable client** negotiates via hello and flips to the binary
  codec for the hot ops, with JSON fallback for everything else;
* a **mixed fleet** shares one server, each connection keeping its own
  codec -- negotiation is per-connection state, never global.

Plus the downgrade row: a server that does not advertise ``bin`` keeps
``auto`` clients on JSON and makes ``bin``-demanding clients fail loudly.
"""

import asyncio

import pytest

from repro.cluster.config import RackConfig, SystemType
from repro.service import protocol
from repro.service.client import ClientConfig, ServiceClient, ServiceError
from repro.service.router import ShardedRackService, ShardRouter
from repro.service.server import RackService

pytestmark = pytest.mark.service


def small_config(**overrides) -> RackConfig:
    defaults = dict(system=SystemType("rackblox"), num_servers=2,
                    num_pairs=2, seed=11)
    defaults.update(overrides)
    return RackConfig(**defaults)


async def _start_service(service_cls=RackService) -> RackService:
    service = service_cls(small_config(), port=0, chunk_us=2000.0)
    await service.start()
    return service


class JsonOnlyService(RackService):
    """A pre-PR-6 server: speaks the protocol but never offers 'bin'."""

    def _capabilities(self) -> list:
        return [c for c in super()._capabilities() if c != "bin"]


async def _raw_exchange(port: int, frames, expect: int):
    """Write raw frames, collect ``expect`` response frames as bytes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for frame in frames:
            writer.write(frame)
        await writer.drain()
        splitter = protocol.FrameSplitter()
        out = []
        while len(out) < expect:
            data = await asyncio.wait_for(reader.read(1 << 16), timeout=10)
            if not data:
                raise AssertionError(f"EOF after {len(out)}/{expect} frames")
            out.extend(bytes(f) for f in splitter.feed(data))
        return out
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _decode_all(frames):
    decoder = protocol.FrameDecoder()
    return [m for f in frames for m in decoder.feed(f)]


class TestV1ClientUntouched:
    def test_no_hello_client_sees_pure_json_wire(self):
        # The strictest compatibility row: a client that never says
        # hello (plain v1 traffic) must get a wire with zero binary
        # bytes -- every response frame is length-prefixed JSON.
        async def scenario():
            service = await _start_service()
            try:
                return await _raw_exchange(service.port, [
                    protocol.encode_frame(
                        {"type": "read", "pair": 0, "lpn": 1, "id": 1}),
                    protocol.encode_frame(
                        {"type": "put", "key": "k", "value": "v", "id": 2}),
                    protocol.encode_frame({"type": "get", "key": "k",
                                           "id": 3}),
                ], expect=3)
            finally:
                await service.stop()

        frames = asyncio.run(scenario())
        assert all(not protocol.frame_is_binary(f) for f in frames)
        responses = {m["id"]: m for m in _decode_all(frames)}
        assert set(responses) == {1, 2, 3}
        assert all(m["ok"] for m in responses.values())
        assert responses[3]["value"] == "v"

    def test_v1_hello_client_sees_pure_json_wire(self):
        # Saying hello with v=1 is still v1 traffic: the server may
        # advertise 'bin', but unless the *client* switches codecs the
        # responses stay JSON.
        async def scenario():
            service = await _start_service()
            try:
                return await _raw_exchange(service.port, [
                    protocol.encode_frame({"type": "hello", "v": 1,
                                           "id": 1}),
                    protocol.encode_frame(
                        {"type": "read", "pair": 0, "lpn": 1, "id": 2}),
                ], expect=2)
            finally:
                await service.stop()

        frames = asyncio.run(scenario())
        assert all(not protocol.frame_is_binary(f) for f in frames)
        hello, read = _decode_all(frames)
        assert "bin" in hello["capabilities"]
        assert read["ok"] and read["id"] == 2


class TestBinCapableClient:
    def test_binary_requests_get_binary_responses(self):
        # After the hello advertises 'bin', a binary request is
        # answered in binary; a JSON request on the *same connection*
        # is still answered in JSON (codec symmetry is per request).
        async def scenario():
            service = await _start_service()
            try:
                return await _raw_exchange(service.port, [
                    protocol.encode_frame(
                        {"type": "hello", "v": 2, "id": 1}),
                    protocol.BIN_CODEC.encode(
                        {"type": "write", "pair": 0, "lpn": 3, "id": 2}),
                    protocol.encode_frame(
                        {"type": "read", "pair": 0, "lpn": 3, "id": 3}),
                    protocol.BIN_CODEC.encode(
                        {"type": "get", "key": "missing", "id": 4}),
                ], expect=4)
            finally:
                await service.stop()

        frames = asyncio.run(scenario())
        by_id = {m["id"]: (m, protocol.frame_is_binary(f))
                 for f in frames for m in _decode_all([f])}
        hello, hello_bin = by_id[1]
        assert "bin" in hello["capabilities"] and not hello_bin
        write, write_bin = by_id[2]
        assert write["ok"] and write_bin
        read, read_bin = by_id[3]
        assert read["ok"] and not read_bin  # JSON in, JSON out
        get, get_bin = by_id[4]
        assert get["ok"] and get["found"] is False and get_bin

    def test_service_client_auto_negotiates(self):
        async def scenario():
            service = await _start_service()
            try:
                async with ServiceClient(
                        "127.0.0.1", service.port,
                        config=ClientConfig(wire_protocol="auto")) as c:
                    await c.write(0, 1)
                    read = await c.read(0, 1)
                    stats = await c.stats()
                    return c.negotiated_protocol, read, stats
            finally:
                await service.stop()

        negotiated, read, stats = asyncio.run(scenario())
        assert negotiated == "bin"
        assert read["ok"]
        assert stats["client"]["bytes_sent"] > 0
        assert stats["client"]["bytes_received"] > 0


class TestMixedFleet:
    def test_json_auto_and_bin_clients_share_one_server(self):
        # Per-connection negotiation: three codec policies, one server,
        # interleaved traffic, and every client both succeeds and ends
        # up on the codec its policy dictates.
        async def scenario():
            service = await _start_service()
            try:
                clients = {
                    mode: ServiceClient(
                        "127.0.0.1", service.port,
                        config=ClientConfig(wire_protocol=mode))
                    for mode in ("json", "auto", "bin")
                }
                for c in clients.values():
                    await c.connect()
                try:
                    async def worker(mode, c):
                        for i in range(8):
                            await c.write(i % 2, i)
                            await c.read(i % 2, i)
                        await c.put(f"key-{mode}", mode)
                        got = await c.get(f"key-{mode}")
                        return got["value"]

                    values = await asyncio.gather(*(
                        worker(mode, c) for mode, c in clients.items()
                    ))
                    negotiated = {mode: c.negotiated_protocol
                                  for mode, c in clients.items()}
                    return values, negotiated
                finally:
                    for c in clients.values():
                        await c.close()
            finally:
                await service.stop()

        values, negotiated = asyncio.run(scenario())
        assert values == ["json", "auto", "bin"]
        assert negotiated == {"json": "json", "auto": "bin", "bin": "bin"}

    def test_mixed_fleet_against_sharded_proxy(self):
        # The proxy advertises 'bin' too: a JSON and a binary client
        # both reach the same 2-rack fleet through it.
        async def scenario():
            router = ShardRouter.from_config(
                small_config(), racks=2, precondition=False,
                chunk_us=2000.0,
            )
            service = ShardedRackService(router, port=0)
            await service.start()
            try:
                async with ServiceClient(
                        "127.0.0.1", service.port,
                        config=ClientConfig(wire_protocol="auto")) as b, \
                        ServiceClient("127.0.0.1", service.port) as j:
                    writes = [await b.write(g, 1) for g in range(4)]
                    reads = [await j.read(g, 1) for g in range(4)]
                    return (b.negotiated_protocol, j.negotiated_protocol,
                            {w["rack"] for w in writes},
                            {r["rack"] for r in reads})
            finally:
                await service.stop()

        bin_proto, json_proto, write_racks, read_racks = asyncio.run(
            scenario())
        assert (bin_proto, json_proto) == ("bin", "json")
        assert write_racks == read_racks == {0, 1}


class TestDowngrade:
    def test_auto_falls_back_to_json_on_a_v1_server(self):
        async def scenario():
            service = await _start_service(JsonOnlyService)
            try:
                async with ServiceClient(
                        "127.0.0.1", service.port,
                        config=ClientConfig(wire_protocol="auto")) as c:
                    await c.write(0, 1)
                    return c.negotiated_protocol, await c.read(0, 1)
            finally:
                await service.stop()

        negotiated, read = asyncio.run(scenario())
        assert negotiated == "json"
        assert read["ok"]

    def test_bin_demanding_client_fails_loudly(self):
        async def scenario():
            service = await _start_service(JsonOnlyService)
            try:
                client = ServiceClient(
                    "127.0.0.1", service.port,
                    config=ClientConfig(wire_protocol="bin"))
                try:
                    await client.connect()
                except ServiceError as exc:
                    return exc
                finally:
                    await client.close()
            finally:
                await service.stop()

        exc = asyncio.run(scenario())
        assert isinstance(exc, ServiceError)
        assert "bin" in exc.message

    def test_invalid_wire_protocol_rejected_up_front(self):
        with pytest.raises(ValueError):
            ClientConfig(wire_protocol="binary")
