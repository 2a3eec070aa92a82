"""SSD emulator validation (§3.7, "Emulation").

The paper validates its Python SSD emulator against the real programmable
SSD.  Without the hardware, we validate against *first principles*: the
simulated device must reproduce the analytically known behaviour of the
modelled geometry --

* a lone operation costs exactly the device profile's latency;
* a saturated channel serves 1/latency operations per second;
* channels scale throughput linearly (channel-level parallelism is the
  isolation primitive of §3.3);
* greedy GC's write amplification under uniform random rewrites stays in
  the band predicted by the standard greedy-GC analysis for the
  configured overprovisioning.
"""

import random
from dataclasses import dataclass
from functools import partial
from typing import List

from repro.flash.ftl import PageMappedFtl
from repro.flash.gc import GreedyGcPolicy
from repro.flash.geometry import FlashGeometry
from repro.flash.ssd import Ssd
from repro.flash.timing import DeviceProfile, PSSD
from repro.sim import Simulator
from repro.vssd.allocator import VssdAllocator


@dataclass
class ValidationRow:
    check: str
    expected: float
    measured: float

    @property
    def error_pct(self) -> float:
        if self.expected == 0:
            return 0.0
        return 100.0 * abs(self.measured - self.expected) / self.expected

    @property
    def ok(self) -> bool:
        return self.error_pct <= 10.0


def _single_op_latencies(profile: DeviceProfile) -> List[ValidationRow]:
    sim = Simulator()
    geo = FlashGeometry(channels=1, chips_per_channel=1, blocks_per_chip=16,
                        pages_per_block=16)
    ssd = Ssd(sim, "v", geometry=geo, profile=profile)
    vssd = VssdAllocator(ssd).create_hardware_isolated("v", channels=[0])
    rows = []
    for check, operation, expected in (
        ("single 4KB program (us)", vssd.start_write, profile.program_latency(4.0)),
        ("single 4KB read (us)", vssd.start_read, profile.read_latency(4.0)),
    ):
        start = sim.now
        operation(0, lambda: None)
        sim.run()
        rows.append(ValidationRow(check, expected, sim.now - start))
    return rows


def _channel_throughput(profile: DeviceProfile, channels: int) -> ValidationRow:
    sim = Simulator()
    geo = FlashGeometry(channels=channels, chips_per_channel=1,
                        blocks_per_chip=64, pages_per_block=16)
    ssd = Ssd(sim, "v", geometry=geo, profile=profile)
    vssd = VssdAllocator(ssd).create_hardware_isolated(
        "v", channels=list(range(channels))
    )
    reads_per_channel = 200

    def read_from(offset: int, i: int) -> None:
        # One reader per channel: its next read once the last is done.
        if i < reads_per_channel:
            vssd.start_read((offset + i * channels) % vssd.logical_pages,
                            partial(read_from, offset, i + 1))

    for channel in range(channels):
        read_from(channel, 0)
    sim.run()
    total_reads = channels * reads_per_channel
    measured_kiops = total_reads / (sim.now / 1000.0)
    expected_kiops = channels * (1000.0 / profile.read_latency(4.0))
    return ValidationRow(
        f"{channels}-channel saturated read throughput (kIOPS)",
        expected_kiops, measured_kiops,
    )


def _write_amplification(overprovision: float, seed: int = 5) -> ValidationRow:
    from repro.flash.chip import FlashChip

    chips = [FlashChip(i, 64, 32) for i in range(2)]
    ftl = PageMappedFtl("wa", chips, 32, overprovision=overprovision)
    policy = GreedyGcPolicy()
    rng = random.Random(seed)
    # Steady state: many uniform random rewrites over the full LBA space.
    for _ in range(ftl.logical_pages * 6):
        if ftl.free_block_ratio() < 0.1:
            policy.collect_until(ftl, target_ratio=0.12)
        ftl.place_write(rng.randrange(ftl.logical_pages))
    measured = ftl.write_amplification()
    # Greedy GC under uniform random traffic: WA ~= 1 / (2 * OP) for small
    # OP (the classical approximation); at OP=0.25 the usual band is ~2.
    expected = 1.0 / (2.0 * overprovision)
    return ValidationRow(
        f"greedy-GC write amplification (OP={overprovision})",
        expected, measured,
    )


def validate_device(profile: DeviceProfile = PSSD) -> List[ValidationRow]:
    """Run the whole validation battery for one device profile."""
    rows = _single_op_latencies(profile)
    rows.append(_channel_throughput(profile, channels=1))
    rows.append(_channel_throughput(profile, channels=4))
    rows.append(_write_amplification(overprovision=0.25))
    return rows


def validation_table(rows: List[ValidationRow]) -> str:
    lines = ["SSD emulator validation (expected vs measured)"]
    for row in rows:
        flag = "ok" if row.ok else "DEVIATION"
        lines.append(
            f"  {row.check:55s} expected={row.expected:10.1f} "
            f"measured={row.measured:10.1f} err={row.error_pct:5.1f}% {flag}"
        )
    return "\n".join(lines)
