"""Tests for the ToR switch: tables, Algorithm 1 data plane, control plane."""

import pytest

from repro.errors import SwitchError
from repro.net.packet import GcKind, OpType, Packet, create_vssd, gc_op
from repro.switch import (
    DestinationTable,
    ForwardAction,
    ReplicaTable,
    ReplyAction,
    SwitchControlPlane,
    SwitchDataPlane,
)


def make_plane():
    """A data plane with two vSSDs that are replicas of each other."""
    plane = SwitchDataPlane()
    cp = SwitchControlPlane(plane)
    cp.handle_packet(create_vssd(1, "10.0.0.16", 2, "10.0.0.20"))
    cp.handle_packet(create_vssd(2, "10.0.0.20", 1, "10.0.0.16"))
    return plane, cp


class TestTables:
    def test_replica_table_roundtrip(self):
        table = ReplicaTable()
        table.insert(7, replica_vssd_id=8)
        assert table.gc_status(7) == 0
        assert table.replica_of(7) == 8
        table.set_gc_status(7, 1)
        assert table.gc_status(7) == 1

    def test_destination_table_roundtrip(self):
        table = DestinationTable()
        table.insert(7, "10.0.0.5")
        assert table.server_ip(7) == "10.0.0.5"
        assert table.gc_status(7) == 0

    def test_missing_entry_raises(self):
        table = ReplicaTable()
        with pytest.raises(SwitchError):
            table.gc_status(1)
        with pytest.raises(SwitchError):
            table.set_gc_status(1, 1)
        with pytest.raises(SwitchError):
            table.remove(1)

    def test_gc_status_is_one_bit(self):
        table = ReplicaTable()
        table.insert(1, 2)
        with pytest.raises(SwitchError):
            table.set_gc_status(1, 2)

    def test_capacity_enforced(self):
        table = ReplicaTable(capacity=2)
        table.insert(1, 2)
        table.insert(2, 1)
        with pytest.raises(SwitchError):
            table.insert(3, 4)

    def test_sram_footprint_within_paper_budget(self):
        # 64K vSSDs must fit in ~1.3 MB per table (§3.3).
        from repro.switch.tables import MAX_VSSDS_PER_RACK

        table = DestinationTable()
        per_entry = 4 + table.entry_bytes
        assert MAX_VSSDS_PER_RACK * per_entry <= 1.3 * 1024 * 1024

    def test_len_and_contains(self):
        table = ReplicaTable()
        table.insert(5, 6)
        assert len(table) == 1 and 5 in table and 6 not in table


class TestReadPath:
    def test_read_forwarded_when_idle(self):
        plane, _ = make_plane()
        pkt = Packet(op=OpType.READ, vssd_id=1)
        action = plane.process_packet(pkt)
        assert isinstance(action, ForwardAction)
        assert action.dst_ip == "10.0.0.16"
        assert not action.redirected
        assert plane.reads_forwarded == 1

    def test_read_redirected_during_gc(self):
        plane, _ = make_plane()
        plane.process_packet(gc_op(1, GcKind.REGULAR, src="10.0.0.16"))
        pkt = Packet(op=OpType.READ, vssd_id=1)
        action = plane.process_packet(pkt)
        assert action.redirected
        assert action.dst_ip == "10.0.0.20"  # replica's server
        assert action.packet.vssd_id == 2    # rewritten to replica vSSD
        assert plane.reads_redirected == 1

    def test_read_not_redirected_when_both_collecting(self):
        plane, _ = make_plane()
        plane.process_packet(gc_op(1, GcKind.REGULAR, src="10.0.0.16"))
        plane.process_packet(gc_op(2, GcKind.REGULAR, src="10.0.0.20"))
        action = plane.process_packet(Packet(op=OpType.READ, vssd_id=1))
        assert not action.redirected
        assert action.dst_ip == "10.0.0.16"

    def test_read_unregistered_vssd_rejected(self):
        plane, _ = make_plane()
        with pytest.raises(SwitchError):
            plane.process_packet(Packet(op=OpType.READ, vssd_id=99))


class TestWritePath:
    def test_writes_never_redirected(self):
        plane, _ = make_plane()
        plane.process_packet(gc_op(1, GcKind.REGULAR, src="10.0.0.16"))
        action = plane.process_packet(Packet(op=OpType.WRITE, vssd_id=1))
        assert isinstance(action, ForwardAction)
        assert action.dst_ip == "10.0.0.16"
        assert not action.redirected
        assert plane.writes_forwarded == 1


class TestGcAdmission:
    def test_regular_gc_always_accepted(self):
        plane, _ = make_plane()
        # Even with the replica collecting, regular GC is accepted.
        plane.process_packet(gc_op(2, GcKind.REGULAR, src="10.0.0.20"))
        action = plane.process_packet(gc_op(1, GcKind.REGULAR, src="10.0.0.16"))
        assert isinstance(action, ReplyAction)
        assert action.packet.gc_kind is GcKind.ACCEPT
        assert action.dst_ip == "10.0.0.16"  # reply to the sender
        assert plane.replica_table.gc_status(1) == 1
        assert plane.destination_table.gc_status(1) == 1

    def test_soft_gc_accepted_when_replica_idle(self):
        plane, _ = make_plane()
        action = plane.process_packet(gc_op(1, GcKind.SOFT, src="10.0.0.16"))
        assert action.packet.gc_kind is GcKind.ACCEPT
        assert plane.replica_table.gc_status(1) == 1
        assert plane.destination_table.gc_status(1) == 1
        assert plane.recirculations == 1

    def test_soft_gc_delayed_when_replica_collecting(self):
        plane, _ = make_plane()
        plane.process_packet(gc_op(2, GcKind.REGULAR, src="10.0.0.20"))
        action = plane.process_packet(gc_op(1, GcKind.SOFT, src="10.0.0.16"))
        assert action.packet.gc_kind is GcKind.DELAY
        # The vSSD's GC bit is rolled back: it is *not* collecting.
        assert plane.replica_table.gc_status(1) == 0
        assert plane.destination_table.gc_status(1) == 0
        assert plane.gc_delayed == 1

    def test_tables_stay_consistent_after_soft_path(self):
        # The recirculation exists to keep the two GC bits consistent;
        # verify they agree after every admission outcome.
        plane, _ = make_plane()
        for kind in (GcKind.SOFT, GcKind.REGULAR, GcKind.FINISH, GcKind.SOFT):
            plane.process_packet(gc_op(1, kind, src="10.0.0.16"))
            assert plane.replica_table.gc_status(1) == plane.destination_table.gc_status(1)

    def test_bg_gc_recorded_without_approval(self):
        plane, _ = make_plane()
        action = plane.process_packet(gc_op(1, GcKind.BG, src="10.0.0.16"))
        assert action.packet.gc_kind is GcKind.ACCEPT
        assert plane.destination_table.gc_status(1) == 1

    def test_finish_clears_both_tables(self):
        plane, _ = make_plane()
        plane.process_packet(gc_op(1, GcKind.REGULAR, src="10.0.0.16"))
        plane.process_packet(gc_op(1, GcKind.FINISH, src="10.0.0.16"))
        assert plane.replica_table.gc_status(1) == 0
        assert plane.destination_table.gc_status(1) == 0
        assert plane.gc_finished == 1

    def test_gc_op_missing_gc_field_rejected(self):
        plane, _ = make_plane()
        with pytest.raises(SwitchError):
            plane.process_packet(Packet(op=OpType.GC_OP, vssd_id=1))

    def test_server_cannot_send_accept_or_delay(self):
        plane, _ = make_plane()
        with pytest.raises(SwitchError):
            plane.process_packet(gc_op(1, GcKind.ACCEPT, src="10.0.0.16"))

    def test_soft_costs_one_recirculation(self):
        plane, _ = make_plane()
        assert plane.gc_op_delay_us(GcKind.SOFT) == pytest.approx(
            2 * plane.PIPELINE_PASS_US
        )
        assert plane.gc_op_delay_us(GcKind.REGULAR) == pytest.approx(
            plane.PIPELINE_PASS_US
        )

    def test_full_gc_cycle_enables_then_disables_redirection(self):
        plane, _ = make_plane()
        # Accept GC on vSSD 1 -> reads redirect to 2.
        plane.process_packet(gc_op(1, GcKind.SOFT, src="10.0.0.16"))
        action = plane.process_packet(Packet(op=OpType.READ, vssd_id=1))
        assert action.redirected
        # Finish -> reads go back to vSSD 1.
        plane.process_packet(gc_op(1, GcKind.FINISH, src="10.0.0.16"))
        action = plane.process_packet(Packet(op=OpType.READ, vssd_id=1))
        assert not action.redirected


class TestControlPlane:
    def test_create_via_packet(self):
        plane = SwitchDataPlane()
        cp = SwitchControlPlane(plane)
        cp.handle_packet(create_vssd(5, "10.0.0.1", 6, "10.0.0.2"))
        assert 5 in plane.replica_table
        assert plane.destination_table.server_ip(5) == "10.0.0.1"
        assert plane.destination_table.server_ip(6) == "10.0.0.2"

    def test_double_registration_rejected(self):
        _, cp = make_plane()
        with pytest.raises(SwitchError):
            cp.handle_packet(create_vssd(1, "10.0.0.16", 2, "10.0.0.20"))

    def test_only_create_vssd_is_handled(self):
        # No run deletes a vSSD: del_vssd is a Table 1 code with no
        # handler, and a data-path op is not a control packet.
        _, cp = make_plane()
        for op in (OpType.DEL_VSSD, OpType.READ):
            with pytest.raises(SwitchError):
                cp.handle_packet(Packet(op=op, vssd_id=1))
        assert set(cp.registration_log()) == {1, 2}

    def test_create_payload_validated(self):
        plane = SwitchDataPlane()
        cp = SwitchControlPlane(plane)
        bad = Packet(op=OpType.CREATE_VSSD, vssd_id=1, payload={"server_ip": "x"})
        with pytest.raises(SwitchError):
            cp.handle_packet(bad)

    def test_dataplane_refuses_control_packets(self):
        plane, _ = make_plane()
        with pytest.raises(SwitchError):
            plane.process_packet(create_vssd(9, "a", 10, "b"))

    def test_repopulate_after_switch_recovery(self):
        _, cp = make_plane()
        fresh = SwitchDataPlane()
        cp.repopulate(fresh)
        # GC states reinitialised to 0, forwarding intact.
        assert fresh.replica_table.gc_status(1) == 0
        assert fresh.destination_table.server_ip(1) == "10.0.0.16"
        action = fresh.process_packet(Packet(op=OpType.READ, vssd_id=1))
        assert action.dst_ip == "10.0.0.16"

    def test_registered_listing(self):
        _, cp = make_plane()
        assert sorted(cp.registration_log()) == [1, 2]
