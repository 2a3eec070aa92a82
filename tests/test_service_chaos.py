"""Chaos over the live service: crash mid-load, client retry.

The acceptance scenario for the serving layer: a schedule kills a server
while a client streams requests, and a :class:`ServiceClient` configured
with timeout+retry completes the whole run with zero application-level
errors -- the failure surfaces only as a nonzero ``retries`` counter.
"""

import asyncio

import pytest

from repro.chaos import FaultEvent, FaultSchedule
from repro.cluster.config import RackConfig, SystemType
from repro.service.admission import AdmissionController
from repro.service.client import ClientConfig, ServiceClient
from repro.service.server import RackService

MS = 1000.0

pytestmark = pytest.mark.chaos


def chaos_config(schedule=None, **overrides) -> RackConfig:
    defaults = dict(
        system=SystemType("rackblox"), num_servers=2, num_pairs=2, seed=11,
        fault_schedule=schedule,
    )
    defaults.update(overrides)
    return RackConfig(**defaults)


def crash_mid_load_schedule() -> FaultSchedule:
    # A wide blind window (detection bound 12 ms sim) so plenty of
    # requests hit the dead-but-undetected primary and must retry.
    return FaultSchedule(
        events=(
            FaultEvent(10.0 * MS, "server_crash", "server:0"),
            FaultEvent(100.0 * MS, "server_recover", "server:0"),
        ),
        heartbeat_interval_us=3.0 * MS,
        miss_threshold=3,
    )


async def _start_service(config, **kwargs) -> RackService:
    service = RackService(config, port=0, **kwargs)
    await service.start()
    return service


class TestCrashMidLoad:
    @pytest.mark.slow
    def test_retries_mask_a_server_crash(self):
        async def scenario():
            service = await _start_service(
                chaos_config(crash_mid_load_schedule()),
                request_timeout_us=30.0 * MS,
            )
            errors = []
            try:
                client = ServiceClient(
                    "127.0.0.1", service.port,
                    config=ClientConfig(
                        max_retries=8, retry_backoff_s=0.001,
                        request_timeout_s=30.0,
                    ),
                )
                # Concurrent load matters: sim time only advances while
                # requests are in flight, so a sequential client would hold
                # exactly one op in the crash->detection blind window (its
                # hang carries sim time past detection).  A window of
                # concurrent ops keeps the blind window populated: several
                # in-flight ops must time out and retry.
                window = asyncio.Semaphore(8)

                async def one_op(i):
                    pair, lpn = i % 2, i % 64
                    async with window:
                        try:
                            if i % 2:
                                await client.write(pair, lpn)
                            else:
                                await client.read(pair, lpn)
                        except Exception as exc:  # the failure being tested
                            errors.append((i, repr(exc)))

                async with client:
                    await asyncio.gather(*(one_op(i) for i in range(200)))
                    stats = await client.stats()
            finally:
                await service.stop()
            return errors, stats

        errors, stats = asyncio.run(scenario())
        assert errors == [], f"ops failed through retries: {errors[:5]}"
        assert stats["client"]["retries"] > 0
        # The schedule really ran on the served rack: the outage is in
        # the chaos counters the /stats endpoint now exposes.
        assert stats["chaos"]["crashes"] == 1.0
        assert stats["chaos"]["detections"] == 1.0

    def test_stats_without_schedule_has_no_chaos_section(self):
        async def scenario():
            service = await _start_service(chaos_config())
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    await c.read(0, 1)
                    return await c.stats()
            finally:
                await service.stop()

        stats = asyncio.run(scenario())
        assert "chaos" not in stats
        assert stats["client"]["retries"] == 0.0


class TestRetryPolicy:
    def test_busy_is_retried_until_admitted(self):
        async def scenario():
            service = await _start_service(
                chaos_config(),
                admission=AdmissionController(max_queue_depth=4),
            )
            try:
                client = ServiceClient(
                    "127.0.0.1", service.port,
                    config=ClientConfig(max_retries=12,
                                        retry_backoff_s=0.005),
                )
                async with client:
                    results = await asyncio.gather(
                        *(client.read(i % 2, i) for i in range(24)),
                        return_exceptions=True,
                    )
            finally:
                await service.stop()
            return results, client.counters

        results, counters = asyncio.run(scenario())
        failures = [r for r in results if not isinstance(r, dict)]
        assert failures == [], failures[:3]
        assert counters["retries"] > 0

    def test_default_client_still_fails_fast(self):
        # max_retries=0 must preserve the historical contract: an
        # unconnected client raises instead of dialling on its own.
        async def scenario():
            client = ServiceClient("127.0.0.1", 1)
            try:
                await client.ping()
            except ConnectionError as exc:
                return exc
            return None

        exc = asyncio.run(scenario())
        assert isinstance(exc, ConnectionError)

    def test_replica_reads_are_served_directly(self):
        # The wire-level escape hatch: replica=True reads address the
        # pair's replica vSSD instead of the primary.
        async def scenario():
            service = await _start_service(chaos_config())
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    return await c.request(
                        {"type": "read", "pair": 0, "lpn": 3, "replica": True}
                    )
            finally:
                await service.stop()

        response = asyncio.run(scenario())
        assert response["ok"] and response["latency_us"] > 0
