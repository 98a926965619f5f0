"""Node wiring and the stack builder."""

import pytest

from repro.core import ConfigurationError, Simulator
from repro.mac import IdealMac
from repro.mobility import line_placement
from repro.net.stack import Network, build_network
from repro.phy import RadioParams, UnitDisk
from repro.routing import OracleRouting


def oracle_factory(sim, nid, mac, rng):
    return OracleRouting(sim, nid, mac, rng)


def ideal_factory(sim, radio, rng):
    return IdealMac(sim, radio)


def make_net(n=3, spacing=100.0):
    sim = Simulator(seed=1)
    net = build_network(
        sim,
        line_placement(spacing, n),
        routing_factory=oracle_factory,
        mac_factory=ideal_factory,
        propagation=UnitDisk(250.0),
        radio_params=RadioParams(),
    )
    for node in net.nodes:
        node.routing.mobility = net.mobility
    return sim, net


class TestBuildNetwork:
    def test_all_layers_wired(self):
        sim, net = make_net()
        assert len(net) == 3
        for i, node in enumerate(net.nodes):
            assert node.node_id == i
            assert node.radio.channel is net.channel
            assert node.mac.radio is node.radio
            assert node.mac.upper is node.routing
            assert node.routing.node is node

    def test_default_propagation_and_params(self):
        sim = Simulator(seed=1)
        net = build_network(
            sim,
            line_placement(100.0, 2),
            routing_factory=oracle_factory,
            mac_factory=ideal_factory,
        )
        # Defaults: two-ray ground at WaveLAN constants -> 250 m range.
        assert net.channel.max_range == pytest.approx(550.0, rel=1e-2)

    def test_start_routing_calls_protocol_start(self):
        sim, net = make_net()
        started = []
        for node in net.nodes:
            node.routing.start = lambda nid=node.node_id: started.append(nid)
        net.start_routing()
        assert started == [0, 1, 2]


class TestNode:
    def test_send_counts_and_stamps(self):
        sim, net = make_net()
        sim.schedule(2.5, lambda: None)
        sim.run()
        p = net.nodes[0].send(1, 64)
        assert net.nodes[0].data_originated == 1
        assert p.created == 2.5
        assert p.src == 0 and p.dst == 1

    def test_send_with_ttl_override(self):
        sim, net = make_net()
        p = net.nodes[0].send(1, 64, ttl=3)
        assert p.ttl == 3

    def test_receivers_fan_out(self):
        sim, net = make_net(n=2)
        seen_a, seen_b = [], []
        net.nodes[1].register_receiver(lambda p, prev: seen_a.append(p))
        net.nodes[1].register_receiver(lambda p, prev: seen_b.append(p))
        net.nodes[0].send(1, 64)
        sim.run()
        assert len(seen_a) == 1 and len(seen_b) == 1
        assert net.nodes[1].data_delivered == 1
