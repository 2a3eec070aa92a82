"""Process-mode fleet smoke: a real backend interpreter joins (and
leaves) a live proxy fleet over the wire.

One scenario, end to end: two ``repro.cli serve`` processes behind a
:class:`ShardProxy`, keys seeded through the front door, then a third
backend process is launched and admitted via the in-band ``admin``
frame -- exactly what ``python -m repro.cli fleet add-rack`` sends.
Every acked write must survive the migration, the epoch must bump, and
a follow-up drain must hand the rack's keys back to the survivors.

This is the slowest drill in the suite (three interpreters), so it
covers only what the in-process tests in ``test_migration.py`` and
``test_migration_window.py`` cannot: the proxy's wire-streamed
migration between real backend processes and the admin frames end to
end.
"""

import asyncio

import pytest

from repro.service.client import ServiceClient
from repro.service.router import (
    ShardProxy,
    launch_backends,
    shutdown_backends,
)

from tests import stats_schema

pytestmark = [pytest.mark.shard, pytest.mark.fleet, pytest.mark.slow]

BACKEND_ARGS = (
    "--racks", "1", "--system", "rackblox",
    "--servers", "2", "--pairs", "2", "--chunk-us", "2000",
)
SEED = 11


class TestProcessModeFleet:
    def test_add_then_drain_a_real_backend_process(self):
        async def scenario():
            procs, endpoints = await launch_backends(
                2, BACKEND_ARGS, seed=SEED
            )
            proxy = ShardProxy(endpoints, port=0, pairs_per_rack=2)
            await proxy.start()
            extra_procs = []
            try:
                async with ServiceClient("127.0.0.1", proxy.port) as c:
                    acked = {}
                    for i in range(80):
                        key = f"k{i:05d}"
                        await c.put(key, f"v{i}")
                        acked[key] = f"v{i}"

                    # The operator's flow: start the new rack's process
                    # first, then admit it by endpoint.  Rack 2's seed
                    # follows the same seed+index derivation the
                    # launcher uses for racks 0 and 1.
                    new_procs, new_endpoints = await launch_backends(
                        1, BACKEND_ARGS, seed=SEED + 2
                    )
                    extra_procs.extend(new_procs)
                    host, port = new_endpoints[0]
                    added = await c.fleet_add_rack(
                        host=host, port=port, batch_size=16,
                    )

                    after_add = {k: await c.get(k) for k in acked}
                    hello = await c.hello()
                    status = await c.fleet_status()
                    stats = await c.stats()

                    drained = await c.fleet_drain_rack(1)
                    after_drain = {k: await c.get(k) for k in acked}
                    end_status = await c.fleet_status()
                    end_stats = await c.stats()
                return (acked, added, after_add, hello, status, stats,
                        drained, after_drain, end_status, end_stats)
            finally:
                await proxy.stop()
                await shutdown_backends(procs + extra_procs)

        (acked, added, after_add, hello, status, stats,
         drained, after_drain, end_status, end_stats) = asyncio.run(
            scenario())

        # --- the add ---------------------------------------------------
        assert added["kind"] == "add" and added["rack"] == 2
        assert added["epoch"] == 1 and added["racks"] == [0, 1, 2]
        assert 0 < added["keys_moved"] <= 1.8 * len(acked) / 3
        for key, value in acked.items():
            assert after_add[key]["found"], key
            assert after_add[key]["value"] == value, key
        assert hello["racks"] == 3 and hello["epoch"] == 1
        assert status["epoch"] == 1 and status["racks"] == [0, 1, 2]
        assert status["migrating"] is False and status["drained"] == []
        stats_schema.validate_stats(stats, client=True)
        assert stats_schema.shard_ids(stats) == [0, 1, 2]
        assert stats["migration"]["racks_added"] == 1.0

        # --- the drain -------------------------------------------------
        assert drained["kind"] == "drain" and drained["rack"] == 1
        assert drained["epoch"] == 2 and drained["racks"] == [0, 2]
        for key, value in acked.items():
            assert after_drain[key]["found"], key
            assert after_drain[key]["value"] == value, key
        assert end_status["epoch"] == 2 and end_status["racks"] == [0, 2]
        assert end_status["drained"] == [1]
        assert stats_schema.shard_ids(end_stats) == [0, 2]
        assert end_stats["migration"]["racks_drained"] == 1.0
