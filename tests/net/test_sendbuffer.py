"""Send buffer for packets awaiting routes."""

import pytest
from hypothesis import given, strategies as st

from repro.core import ConfigurationError
from repro.core.drops import DropReason
from repro.net import Packet, PacketKind, SendBuffer


def pkt(dst=1):
    return Packet(PacketKind.DATA, "cbr", 0, dst, 64, created=0.0)


class TestBasics:
    def test_add_and_take(self):
        b = SendBuffer()
        p1, p2 = pkt(1), pkt(2)
        b.add(p1, now=0.0)
        b.add(p2, now=0.0)
        assert b.take_for(1, now=1.0) == [p1]
        assert len(b) == 1

    def test_take_preserves_order(self):
        b = SendBuffer()
        ps = [pkt(3) for _ in range(4)]
        for p in ps:
            b.add(p, now=0.0)
        assert b.take_for(3, now=1.0) == ps

    def test_overflow_evicts_oldest(self):
        b = SendBuffer(capacity=2)
        p1, p2, p3 = pkt(), pkt(), pkt()
        for p in (p1, p2, p3):
            b.add(p, now=0.0)
        assert b.drops.nonzero() == {"send_buffer_full": 1}
        assert b.take_for(1, now=1.0) == [p2, p3]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SendBuffer(capacity=0)
        with pytest.raises(ConfigurationError):
            SendBuffer(timeout=0.0)


class TestExpiry:
    def test_take_skips_expired(self):
        b = SendBuffer(timeout=10.0)
        old, fresh = pkt(1), pkt(1)
        b.add(old, now=0.0)
        b.add(fresh, now=8.0)
        out = b.take_for(1, now=11.0)  # old expired at 10
        assert out == [fresh]
        assert b.drops.nonzero() == {"send_buffer_expired": 1}

    def test_purge_expired(self):
        b = SendBuffer(timeout=5.0)
        b.add(pkt(1), now=0.0)
        b.add(pkt(2), now=4.0)
        assert b.purge_expired(now=6.0) == 1
        assert b.drops.counts[DropReason.SEND_BUFFER_EXPIRED] == 1
        assert len(b) == 1

    def test_drop_for(self):
        b = SendBuffer()
        p1, p2 = pkt(1), pkt(2)
        b.add(p1, now=0.0)
        b.add(p2, now=0.0)
        assert b.drop_for(1) == [p1]
        assert len(b) == 1

    def test_pending_destinations(self):
        b = SendBuffer()
        b.add(pkt(1), now=0.0)
        b.add(pkt(5), now=0.0)
        assert b.pending_destinations() == {1, 5}


@given(st.lists(st.integers(0, 5), max_size=40))
def test_property_conservation(dsts):
    """Every added packet is exactly once taken, dropped, or retained."""
    b = SendBuffer(capacity=16, timeout=100.0)
    for d in dsts:
        b.add(pkt(d), now=0.0)
    taken = sum(len(b.take_for(d, now=1.0)) for d in range(6))
    assert taken + b.drops.counts[DropReason.SEND_BUFFER_FULL] == len(dsts)
    assert len(b) == 0
