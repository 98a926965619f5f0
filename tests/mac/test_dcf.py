"""802.11 DCF MAC: exchanges, contention, retries, NAV."""

import pytest

from repro.core.drops import DropReason
from repro.mac.frames import Dot11
from tests.mac.conftest import Testbed


def test_unicast_with_rtscts_delivers():
    tb = Testbed([(0, 0), (150, 0)])
    pkt = tb.packet(0, 1, size=512)
    tb.macs[0].send(pkt, 1)
    tb.sim.run()
    assert [p for p, _, _ in tb.uppers[1].delivered] == [pkt]
    assert tb.macs[0].stats.rts_sent == 1
    assert tb.macs[1].stats.cts_sent == 1
    assert tb.macs[1].stats.ack_sent == 1


def test_unicast_without_rtscts():
    tb = Testbed([(0, 0), (150, 0)], use_rtscts=False)
    pkt = tb.packet(0, 1, size=512)
    tb.macs[0].send(pkt, 1)
    tb.sim.run()
    assert len(tb.uppers[1].delivered) == 1
    assert tb.macs[0].stats.rts_sent == 0
    assert tb.macs[1].stats.ack_sent == 1


def test_broadcast_no_handshake_no_ack():
    tb = Testbed([(0, 0), (150, 0), (-150, 0)])
    pkt = tb.packet(0, -1)
    tb.macs[0].send(pkt, -1)
    tb.sim.run()
    assert len(tb.uppers[1].delivered) == 1
    assert len(tb.uppers[2].delivered) == 1
    assert tb.macs[0].stats.rts_sent == 0
    assert tb.macs[1].stats.ack_sent == 0


def test_retry_exhaustion_reports_link_failure():
    # Receiver out of range: RTS never answered -> retries -> link_failed.
    tb = Testbed([(0, 0), (1000, 0)])
    pkt = tb.packet(0, 1)
    tb.macs[0].send(pkt, 1)
    tb.sim.run()
    assert tb.uppers[0].failures == [(pkt, 1)]
    assert tb.macs[0].stats.retries == Dot11.SHORT_RETRY_LIMIT + 1
    assert tb.macs[0].stats.drops_retry_limit == 1


def test_queue_drains_after_link_failure():
    tb = Testbed([(0, 0), (150, 0), (1000, 0)])
    dead = tb.packet(0, 2)
    live = tb.packet(0, 1)
    tb.macs[0].send(dead, 2)
    tb.macs[0].send(live, 1)
    tb.sim.run()
    assert tb.uppers[0].failures == [(dead, 2)]
    assert [p for p, _, _ in tb.uppers[1].delivered] == [live]


def test_two_contenders_both_deliver():
    # Nodes 0 and 2 both in range of hub 1 and of each other.
    tb = Testbed([(0, 0), (100, 0), (200, 0)])
    p0 = tb.packet(0, 1)
    p2 = tb.packet(2, 1)
    tb.macs[0].send(p0, 1)
    tb.macs[2].send(p2, 1)
    tb.sim.run()
    got = {p.uid for p, _, _ in tb.uppers[1].delivered}
    assert got == {p0.uid, p2.uid}


def test_many_contenders_all_deliver():
    # 5 senders around a hub, all mutually in carrier-sense range.
    positions = [(0, 0)] + [(50 + 10 * i, 0) for i in range(5)]
    tb = Testbed(positions)
    pkts = []
    for i in range(1, 6):
        p = tb.packet(i, 0)
        pkts.append(p)
        tb.macs[i].send(p, 0)
    tb.sim.run()
    got = {p.uid for p, _, _ in tb.uppers[0].delivered}
    assert got == {p.uid for p in pkts}


def test_hidden_terminal_rtscts_still_delivers():
    """0 and 2 cannot hear each other (hidden) but both reach 1.

    With RTS/CTS, the loser of the race defers via the CTS NAV, so both
    packets eventually arrive despite hidden-terminal collisions.
    """
    tb = Testbed([(0, 0), (200, 0), (400, 0)], radius=250.0)
    p0 = tb.packet(0, 1, size=512)
    p2 = tb.packet(2, 1, size=512)
    tb.macs[0].send(p0, 1)
    tb.macs[2].send(p2, 1)
    tb.sim.run()
    got = {p.uid for p, _, _ in tb.uppers[1].delivered}
    assert got == {p0.uid, p2.uid}


def test_burst_of_packets_all_delivered_in_order():
    tb = Testbed([(0, 0), (150, 0)])
    pkts = [tb.packet(0, 1) for _ in range(10)]
    for p in pkts:
        tb.macs[0].send(p, 1)
    tb.sim.run()
    assert [p.uid for p, _, _ in tb.uppers[1].delivered] == [p.uid for p in pkts]


def test_ifq_overflow_counts_drop():
    tb = Testbed([(0, 0), (150, 0)])
    for _ in range(60):  # capacity 50 + one in service
        tb.macs[0].send(tb.packet(0, 1), 1)
    tb.sim.run()
    assert tb.sim.drops.counts[DropReason.IFQ_FULL] > 0
    assert len(tb.uppers[1].delivered) >= 50


def test_promiscuous_snoop():
    tb = Testbed([(0, 0), (150, 0), (75, 50)], promiscuous=True)
    pkt = tb.packet(0, 1, size=256)
    tb.macs[0].send(pkt, 1)
    tb.sim.run()
    assert [(p.uid, ph) for p, ph, _ in tb.uppers[2].snooped] == [(pkt.uid, 0)]


def test_non_promiscuous_does_not_snoop():
    tb = Testbed([(0, 0), (150, 0), (75, 50)], promiscuous=False)
    tb.macs[0].send(tb.packet(0, 1), 1)
    tb.sim.run()
    assert tb.uppers[2].snooped == []


def test_nav_defers_third_party():
    """A bystander hearing RTS must not transmit during the exchange."""
    tb = Testbed([(0, 0), (150, 0), (75, 50)])
    big = tb.packet(0, 1, size=1024)
    tb.macs[0].send(big, 1)
    # Bystander queues a broadcast just after the RTS goes out.
    bc = tb.packet(2, -1)
    tb.sim.schedule(0.0015, tb.macs[2].send, bc, -1)
    tb.sim.run()
    # Both complete despite overlap pressure: the unicast reaches node 1
    # exactly once, and the deferred broadcast still reaches everyone.
    assert [p.uid for p, _, _ in tb.uppers[1].delivered if p.uid == big.uid] == [big.uid]
    assert any(p.uid == bc.uid for p, _, _ in tb.uppers[0].delivered)
    assert any(p.uid == bc.uid for p, _, _ in tb.uppers[1].delivered)


def test_deterministic_with_same_seed():
    def run(seed):
        tb = Testbed([(0, 0), (100, 0), (200, 0)], seed=seed)
        for i in (0, 2):
            for _ in range(5):
                tb.macs[i].send(tb.packet(i, 1), 1)
        tb.sim.run()
        return [
            (p.uid % 1000, ph) for p, ph, _ in tb.uppers[1].delivered
        ], tb.sim.events_processed

    # Note: packet uids are process-global, so compare event counts and
    # arrival structure rather than raw uids.
    _, ev_a = run(42)
    _, ev_b = run(42)
    assert ev_a == ev_b


def test_stats_data_counters():
    tb = Testbed([(0, 0), (150, 0)])
    tb.macs[0].send(tb.packet(0, 1), 1)
    tb.sim.run()
    assert tb.macs[0].stats.data_sent == 1
    assert tb.macs[1].stats.data_received == 1
