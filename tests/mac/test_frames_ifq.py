"""Frames and the interface priority queue."""

import pytest

from repro.core import ConfigurationError, PacketError
from repro.core.drops import DropReason
from repro.mac import Dot11, Frame, FrameType, InterfaceQueue
from repro.net import Packet, PacketKind


def data_pkt(size=64, kind=PacketKind.DATA, proto="cbr"):
    return Packet(kind, proto, 0, 1, size, created=0.0)


class TestFrame:
    def test_data_frame_includes_mac_header(self):
        f = Frame.data(0, 1, data_pkt(100))
        assert f.size == Dot11.DATA_HEADER + 100

    def test_airtime_includes_plcp(self):
        f = Frame.ack(0, 1)
        assert f.airtime(2e6) == pytest.approx(Dot11.PLCP_OVERHEAD + 14 * 8 / 2e6)

    def test_control_sizes(self):
        assert Frame.rts(0, 1, 0.001).size == Dot11.RTS_SIZE
        assert Frame.cts(0, 1, 0.001).size == Dot11.CTS_SIZE
        assert Frame.ack(0, 1).size == Dot11.ACK_SIZE

    def test_data_requires_payload(self):
        with pytest.raises(PacketError):
            Frame(FrameType.DATA, 0, 1, 100, None)

    def test_control_rejects_payload(self):
        with pytest.raises(PacketError):
            Frame(FrameType.ACK, 0, 1, 14, data_pkt())

    def test_broadcast_flag(self):
        assert Frame.data(0, -1, data_pkt()).is_broadcast
        assert not Frame.data(0, 5, data_pkt()).is_broadcast

    def test_uids_unique(self):
        a, b = Frame.ack(0, 1), Frame.ack(0, 1)
        assert a.uid != b.uid


class TestInterfaceQueue:
    def test_fifo_order(self):
        q = InterfaceQueue(10)
        p1, p2 = data_pkt(), data_pkt()
        q.push(p1, 5)
        q.push(p2, 6)
        assert q.pop() == (p1, 5)
        assert q.pop() == (p2, 6)
        assert q.pop() is None

    def test_control_priority(self):
        q = InterfaceQueue(10)
        d = data_pkt()
        c = Packet(PacketKind.CONTROL, "aodv", 0, -1, 24, created=0.0)
        q.push(d, 1)
        q.push(c, -1)
        assert q.pop() == (c, -1)
        assert q.pop() == (d, 1)

    def test_drop_tail_when_full(self):
        q = InterfaceQueue(2)
        assert q.push(data_pkt(), 1)
        assert q.push(data_pkt(), 1)
        assert not q.push(data_pkt(), 1)
        assert q.drops.counts[DropReason.IFQ_FULL] == 1
        assert len(q) == 2

    def test_control_evicts_data_when_full(self):
        q = InterfaceQueue(2)
        d1, d2 = data_pkt(), data_pkt()
        q.push(d1, 1)
        q.push(d2, 1)
        c = Packet(PacketKind.CONTROL, "aodv", 0, -1, 24, created=0.0)
        assert q.push(c, -1)
        assert q.drops.nonzero() == {"ifq_evicted": 1}
        # Control came in; newest data (d2) was evicted.
        assert q.pop() == (c, -1)
        assert q.pop() == (d1, 1)
        assert q.pop() is None

    def test_control_dropped_when_full_of_control(self):
        q = InterfaceQueue(1)
        c1 = Packet(PacketKind.CONTROL, "aodv", 0, -1, 24, created=0.0)
        c2 = Packet(PacketKind.CONTROL, "aodv", 0, -1, 24, created=0.0)
        q.push(c1, -1)
        assert not q.push(c2, -1)
        assert q.drops.counts[DropReason.IFQ_FULL] == 1

    def test_remove_for_next_hop(self):
        q = InterfaceQueue(10)
        p1, p2, p3 = data_pkt(), data_pkt(), data_pkt()
        q.push(p1, 5)
        q.push(p2, 7)
        q.push(p3, 5)
        removed = q.remove_for_next_hop(5)
        assert [p for p, _ in removed] == [p1, p3]
        assert len(q) == 1
        assert q.pop() == (p2, 7)

    def test_peak_occupancy(self):
        q = InterfaceQueue(10)
        for _ in range(4):
            q.push(data_pkt(), 1)
        q.pop()
        assert q.peak == 4

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            InterfaceQueue(0)

    def test_clear(self):
        q = InterfaceQueue(5)
        q.push(data_pkt(), 1)
        q.clear()
        assert q.is_empty
