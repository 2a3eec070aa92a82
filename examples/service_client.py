#!/usr/bin/env python3
"""The live service from a Python program: one rack served over TCP.

Starts a :class:`RackService` on a free local port, then talks to it
through :class:`ServiceClient`: the ``hello`` exchange, a ping, raw vSSD
reads and writes, and key-value puts, gets, a scan and a delete, each
answered after its simulated latency.  The server drains on the way out.

Run:
    python examples/service_client.py
"""

import asyncio

from repro.api import ClientConfig, RackConfig, RackService, ServiceClient, SystemType


async def session() -> None:
    config = RackConfig(system=SystemType.RACKBLOX, num_servers=2,
                        num_pairs=2, seed=7)
    service = RackService(config, port=0)
    await service.start()
    try:
        client = ServiceClient("127.0.0.1", service.port, "example",
                               config=ClientConfig(wire_protocol="auto"))
        async with client:
            hello = await client.hello()
            print(f"protocol v{hello['v']}, capabilities "
                  f"{', '.join(hello['capabilities'])}")
            await client.ping()
            write = await client.write(pair=0, lpn=7)
            read = await client.read(pair=0, lpn=7)
            print(f"raw write {write['latency_us']:.0f} us, "
                  f"raw read {read['latency_us']:.0f} us (simulated)")
            for i in range(5):
                await client.put(f"user:{i}", f"profile-{i}")
            got = await client.get("user:3")
            print(f"get user:3 -> {got['value']}")
            await client.delete("user:3")
            gone = await client.get("user:3")
            print(f"after delete, found={gone['found']}")
            listed = await client.scan("user:", count=10)
            print(f"scan user: -> {[key for key, _ in listed['items']]}")
    finally:
        await service.stop()


def main() -> None:
    asyncio.run(session())


if __name__ == "__main__":
    main()
