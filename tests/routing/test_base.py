"""RoutingProtocol base-class helpers."""

import pytest

from repro.core.drops import DropReason
from repro.net import BROADCAST, Packet, PacketKind
from repro.routing.base import RoutingProtocol, RoutingStats
from tests.routing.conftest import make_static_network


class EchoProtocol(RoutingProtocol):
    """Minimal concrete protocol for base-class testing."""

    NAME = "echo"

    def __init__(self, sim, node_id, mac, rng):
        super().__init__(sim, node_id, mac, rng)
        self.control_seen = []
        self.forward_seen = []

    def originate(self, packet):
        self.send_data(packet, packet.dst, forwarded=False)

    def on_control(self, packet, prev_hop, rx_power):
        self.control_seen.append((packet, prev_hop))

    def on_data_to_forward(self, packet, prev_hop, rx_power):
        self.forward_seen.append(packet)


def make_pair():
    return make_static_network(
        [(0, 0), (100, 0)],
        lambda s, n, m, r: EchoProtocol(s, n, m, r),
        mac="ideal",
    )


class TestControlHelpers:
    def test_make_control_fields(self):
        sim, net = make_pair()
        agent = net.nodes[0].routing
        pkt = agent.make_control({"x": 1}, size=24, ttl=5)
        assert pkt.kind == PacketKind.CONTROL
        assert pkt.proto == "echo"
        assert pkt.src == 0 and pkt.dst == BROADCAST
        assert pkt.ttl == 5 and pkt.size == 24

    def test_send_control_counts_overhead(self):
        sim, net = make_pair()
        agent = net.nodes[0].routing
        pkt = agent.make_control(None, size=30)
        agent.send_control(pkt, BROADCAST)
        assert agent.stats.control_packets == 1
        assert agent.stats.control_bytes == 30

    def test_broadcast_control_is_jittered(self):
        sim, net = make_pair()
        agent = net.nodes[0].routing
        pkt = agent.make_control(None, size=10)
        agent.send_control(pkt, BROADCAST)
        # Nothing on the air yet: the send is scheduled, not immediate.
        assert sim.pending() > 0
        sim.run(until=1.0)
        assert len(net.nodes[1].routing.control_seen) == 1

    def test_unicast_control_immediate(self):
        sim, net = make_pair()
        agent = net.nodes[0].routing
        pkt = agent.make_control(None, size=10, dst=1)
        agent.send_control(pkt, 1, jitter=0.0)
        sim.run(until=1.0)
        assert len(net.nodes[1].routing.control_seen) == 1

    def test_foreign_protocol_control_ignored(self):
        sim, net = make_pair()
        agent1 = net.nodes[1].routing
        foreign = Packet(PacketKind.CONTROL, "alien", 0, BROADCAST, 16, created=0.0)
        agent1.deliver(foreign, prev_hop=0, rx_power=1.0)
        assert agent1.control_seen == []


class TestDataDispatch:
    def test_local_delivery(self):
        sim, net = make_pair()
        got = []
        net.nodes[1].register_receiver(lambda p, prev: got.append(p))
        net.nodes[0].send(1, 64)
        sim.run(until=1.0)
        assert len(got) == 1

    def test_broadcast_data_delivered_locally(self):
        sim, net = make_pair()
        got = []
        net.nodes[1].register_receiver(lambda p, prev: got.append(p))
        pkt = Packet(PacketKind.DATA, "cbr", 0, BROADCAST, 32, created=0.0)
        net.nodes[0].routing.send_data(pkt, BROADCAST, forwarded=False)
        sim.run(until=1.0)
        assert len(got) == 1

    def test_transit_data_routed_to_forward_hook(self):
        sim, net = make_pair()
        agent1 = net.nodes[1].routing
        transit = Packet(PacketKind.DATA, "cbr", 0, 9, 64, created=0.0)
        agent1.deliver(transit, prev_hop=0, rx_power=1.0)
        assert agent1.forward_seen == [transit]

    def test_send_data_ttl_exhaustion(self):
        sim, net = make_pair()
        agent = net.nodes[0].routing
        pkt = Packet(PacketKind.DATA, "cbr", 0, 1, 64, created=0.0, ttl=0)
        ok = agent.send_data(pkt, 1, forwarded=True)
        assert not ok
        assert sim.drops.counts[DropReason.TTL_EXPIRED] == 1

    def test_stats_slots(self):
        s = RoutingStats()
        assert s.control_packets == 0
        assert s.discoveries == 0
        with pytest.raises(AttributeError):
            s.nonexistent = 1
