"""Ideal MAC behaviour."""

from tests.mac.conftest import Testbed


def test_unicast_delivery():
    tb = Testbed([(0, 0), (100, 0)], mac="ideal")
    pkt = tb.packet(0, 1)
    tb.macs[0].send(pkt, 1)
    tb.sim.run()
    assert [p for p, _, _ in tb.uppers[1].delivered] == [pkt]


def test_unicast_not_delivered_to_third_party():
    tb = Testbed([(0, 0), (100, 0), (200, 0)], mac="ideal")
    tb.macs[0].send(tb.packet(0, 1), 1)
    tb.sim.run()
    assert tb.uppers[2].delivered == []


def test_broadcast_delivery():
    tb = Testbed([(0, 0), (100, 0), (200, 0)], mac="ideal")
    pkt = tb.packet(0, -1)
    tb.macs[0].send(pkt, -1)
    tb.sim.run()
    assert len(tb.uppers[1].delivered) == 1
    assert len(tb.uppers[2].delivered) == 1


def test_serializes_queue():
    tb = Testbed([(0, 0), (100, 0)], mac="ideal")
    pkts = [tb.packet(0, 1) for _ in range(5)]
    for p in pkts:
        tb.macs[0].send(p, 1)
    tb.sim.run()
    assert [p for p, _, _ in tb.uppers[1].delivered] == pkts
    assert tb.macs[0].stats.data_sent == 5


def test_no_link_failure_detection():
    # Destination out of range: packet silently lost, no failure callback.
    tb = Testbed([(0, 0), (1000, 0)], mac="ideal")
    tb.macs[0].send(tb.packet(0, 1), 1)
    tb.sim.run()
    assert tb.uppers[0].failures == []
    assert tb.uppers[1].delivered == []


def test_prev_hop_reported():
    tb = Testbed([(0, 0), (100, 0)], mac="ideal")
    tb.macs[0].send(tb.packet(0, 1), 1)
    tb.sim.run()
    _, prev_hop, power = tb.uppers[1].delivered[0]
    assert prev_hop == 0
    assert power > 0


def test_relay_from_delivery_spares_the_frame_it_relays():
    """A node that forwards from its delivery callback starts sending
    only after the frame it forwards has ended everywhere: the
    receivers after it in the end-of-frame pass still decode that
    frame, and its sender is no longer deaf to the relay."""
    tb = Testbed([(0, 0), (100, 0), (50, 80)], mac="ideal")
    relay = tb.macs[1]
    deliver_up = relay._deliver_up

    def forward(packet, prev_hop, rx_power):
        deliver_up(packet, prev_hop, rx_power)
        if prev_hop == 0:
            relay.send(packet, -1)

    relay._deliver_up = forward
    pkt = tb.packet(0, -1)
    tb.macs[0].send(pkt, -1)
    tb.sim.run()
    tb.channel.flush_phy_stats()
    assert [(p, hop) for p, hop, _ in tb.uppers[2].delivered] == [(pkt, 0), (pkt, 1)]
    assert tb.radios[2].stats.collisions == 0
    assert [(p, hop) for p, hop, _ in tb.uppers[0].delivered] == [(pkt, 1)]
