#!/usr/bin/env python3
"""Deep dive: watch coordinated GC work packet-by-packet.

Builds the switch data plane and two storage servers by hand (no client
load) and walks through the §3.5 state machine:

  1. vSSD 1 requests *soft* GC -> accepted, reads redirect to vSSD 2;
  2. vSSD 2 then requests soft GC -> **delayed** (its replica is busy);
  3. vSSD 1 finishes -> vSSD 2's retry is accepted;
  4. a *regular* (hard-threshold) request is never denied, even when the
     replica is collecting.

Run:
    python examples/coordinated_gc_deep_dive.py
"""

from repro.net.packet import GcKind, OpType, Packet, create_vssd, gc_op
from repro.switch import SwitchControlPlane, SwitchDataPlane


def show_read_routing(plane: SwitchDataPlane, vssd_id: int) -> None:
    pkt = Packet(op=OpType.READ, vssd_id=vssd_id)
    action = plane.process_packet(pkt)
    arrow = "REDIRECTED ->" if action.redirected else "forwarded  ->"
    print(f"    read for vSSD {vssd_id}: {arrow} {action.dst_ip} "
          f"(served by vSSD {action.packet.vssd_id})")


def send_gc(plane: SwitchDataPlane, vssd_id: int, kind: GcKind, src: str) -> GcKind:
    reply = plane.process_packet(gc_op(vssd_id, kind, src=src))
    verdict = reply.packet.gc_kind
    print(f"    gc_op({kind.name}) from vSSD {vssd_id}: switch says "
          f"{verdict.name}")
    return verdict


def main() -> None:
    plane = SwitchDataPlane()
    control = SwitchControlPlane(plane)
    # Two vSSDs that replicate each other, on different servers; each
    # announces itself with a Table 1 create_vssd packet.
    control.handle_packet(create_vssd(1, "10.0.0.16", 2, "10.0.0.20"))
    control.handle_packet(create_vssd(2, "10.0.0.20", 1, "10.0.0.16"))

    print("[1] both idle: reads go to the primary")
    show_read_routing(plane, 1)

    print("\n[2] vSSD 1 falls below the soft threshold and asks to GC")
    verdict = send_gc(plane, 1, GcKind.SOFT, src="10.0.0.16")
    assert verdict is GcKind.ACCEPT
    print("    while vSSD 1 collects, the switch steers its reads away:")
    show_read_routing(plane, 1)

    print("\n[3] vSSD 2 also wants soft GC -- but its replica is collecting")
    verdict = send_gc(plane, 2, GcKind.SOFT, src="10.0.0.20")
    assert verdict is GcKind.DELAY
    print("    (the switch delayed it so one replica always serves fast;")
    print(f"     this check cost a packet recirculation: "
          f"{plane.recirculations} so far)")

    print("\n[4] vSSD 1 finishes GC")
    send_gc(plane, 1, GcKind.FINISH, src="10.0.0.16")
    show_read_routing(plane, 1)
    print("    now vSSD 2's retry is admitted:")
    verdict = send_gc(plane, 2, GcKind.SOFT, src="10.0.0.20")
    assert verdict is GcKind.ACCEPT
    show_read_routing(plane, 2)

    print("\n[5] hard-threshold (regular) GC is never denied")
    # vSSD 2 is still collecting, yet vSSD 1's regular request passes.
    verdict = send_gc(plane, 1, GcKind.REGULAR, src="10.0.0.16")
    assert verdict is GcKind.ACCEPT
    print("    both replicas are now collecting; reads stop redirecting")
    show_read_routing(plane, 1)

    print(f"\nswitch counters: {plane.gc_accepted} accepts, "
          f"{plane.gc_delayed} delays, {plane.reads_redirected} redirects, "
          f"{plane.recirculations} recirculations")


if __name__ == "__main__":
    main()
