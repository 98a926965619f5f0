"""OLSR: link sensing, MPR selection, TC flooding, routing."""

import pytest

from repro.core.drops import DropReason
from repro.routing.olsr import MPR, SYM, Olsr, OlsrHello, OlsrTc
from tests.routing.conftest import collect_deliveries, make_static_network

CHAIN4 = [(0, 0), (200, 0), (400, 0), (600, 0)]
STAR = [(0, 0), (200, 0), (-200, 0), (0, 200), (0, -200)]  # 0 is the hub


def make_net(positions, seed=1, mac="dcf", **kwargs):
    return make_static_network(
        positions,
        lambda s, n, m, r: Olsr(s, n, m, r, **kwargs),
        mac=mac,
        seed=seed,
    )


class TestLinkSensing:
    def test_symmetric_links_form(self):
        sim, net = make_net([(0, 0), (150, 0)])
        sim.run(until=10.0)
        a = net.nodes[0].routing
        assert a.neighbors.is_neighbor(1, sim.now, bidirectional_only=True)

    def test_lost_neighbor_expires(self):
        sim, net = make_net([(0, 0), (150, 0)])
        sim.run(until=10.0)
        # Silence node 1 by stopping its hello generation brutally.
        net.nodes[1].routing._hello_tick = lambda: None  # type: ignore
        sim.run(until=40.0)
        a = net.nodes[0].routing
        assert not a.neighbors.is_neighbor(1, sim.now, bidirectional_only=True)


class TestMprSelection:
    def test_chain_middle_nodes_are_mprs(self):
        sim, net = make_net(CHAIN4)
        sim.run(until=15.0)
        # Node 1 must pick 2 as MPR (to reach 3), and vice versa.
        assert 2 in net.nodes[1].routing.mpr_set
        assert 1 in net.nodes[2].routing.mpr_set

    def test_leaf_nodes_select_their_only_neighbor(self):
        sim, net = make_net(CHAIN4)
        sim.run(until=15.0)
        assert net.nodes[0].routing.mpr_set == {1}

    def test_star_hub_not_mpr_without_two_hop(self):
        # In a star all leaves are 2 hops apart through the hub.
        sim, net = make_net(STAR)
        sim.run(until=15.0)
        for leaf in (1, 2, 3, 4):
            assert net.nodes[leaf].routing.mpr_set == {0}

    def test_mpr_selectors_seen_by_selected(self):
        sim, net = make_net(CHAIN4)
        sim.run(until=15.0)
        sel = net.nodes[1].routing.mpr_selectors()
        assert 0 in sel or 2 in sel

    def test_unit_greedy_cover(self):
        sim, net = make_net([(0, 0), (150, 0)])
        agent = net.nodes[0].routing
        # Hand-craft two neighbors: 1 covers {10, 11}, 2 covers {11}.
        now = sim.now
        e1 = agent.neighbors.heard(1, now, bidirectional=True)
        e1.meta["twohop"] = {10, 11}
        e2 = agent.neighbors.heard(2, now, bidirectional=True)
        e2.meta["twohop"] = {11}
        agent._select_mprs()
        assert agent.mpr_set == {1}


class TestTcFlooding:
    def test_topology_propagates_across_chain(self):
        sim, net = make_net(CHAIN4)
        sim.run(until=30.0)
        # Node 0 must know links advertised by node 2 (3 hops of info).
        topo = net.nodes[0].routing.topology
        assert any(orig in (1, 2) for orig in topo)

    def test_only_mpr_nodes_emit_tc(self):
        sim, net = make_net(STAR)
        sim.run(until=30.0)
        hub_tc = [
            1
            for k in net.nodes[0].routing._seen_tc
            if k[0] == 0
        ]
        assert hub_tc  # the hub is everyone's MPR -> emits TC
        # A leaf is nobody's MPR: its ansn never advances.
        assert net.nodes[1].routing.ansn == 0

    def test_duplicate_tc_not_reprocessed(self):
        sim, net = make_net([(0, 0), (150, 0)])
        agent = net.nodes[0].routing
        msg = OlsrTc(orig=9, ansn=5, selectors=(7,))
        pkt = agent.make_control(msg, 20, ttl=8)
        agent._on_tc(pkt, msg, prev_hop=1)
        t1 = agent.topology[9]
        pkt2 = agent.make_control(msg, 20, ttl=8)
        agent._on_tc(pkt2, msg, prev_hop=1)
        assert agent.topology[9] == t1

    def test_newer_ansn_replaces_topology(self):
        sim, net = make_net([(0, 0), (150, 0)])
        agent = net.nodes[0].routing
        for ansn, sels in ((5, (7,)), (6, (8,))):
            msg = OlsrTc(orig=9, ansn=ansn, selectors=sels)
            pkt = agent.make_control(msg, 20, ttl=8)
            agent._on_tc(pkt, msg, prev_hop=1)
        assert agent.topology[9][1] == {8}


class TestRouting:
    def test_chain_end_to_end(self):
        sim, net = make_net(CHAIN4)
        log = collect_deliveries(net)
        sim.run(until=30.0)  # allow TC propagation
        net.nodes[0].send(3, 64)
        sim.run(until=35.0)
        assert [(nid, p.src) for nid, p, _ in log] == [(3, 0)]

    def test_route_distance(self):
        sim, net = make_net(CHAIN4)
        sim.run(until=30.0)
        assert net.nodes[0].routing.route_distance(3) == 3
        assert net.nodes[0].routing.route_distance(1) == 1

    def test_immediate_send_no_discovery_delay(self):
        """Once converged, data flows without route-acquisition latency."""
        sim, net = make_net(CHAIN4)
        log = collect_deliveries(net)
        sim.run(until=30.0)
        t0 = sim.now
        net.nodes[0].send(3, 64)
        sim.run(until=t0 + 1.0)
        assert len(log) == 1
        delay = log[0][1].created
        assert delay == t0  # sent at once, no buffering

    def test_drop_when_unconverged(self):
        sim, net = make_net(CHAIN4)
        log = collect_deliveries(net)
        net.nodes[0].send(3, 64)  # t = 0, no hellos exchanged yet
        sim.run(until=0.5)
        assert log == []
        assert sim.drops.counts[DropReason.NO_ROUTE] == 1

    def test_partitioned_no_route(self):
        sim, net = make_net([(0, 0), (2000, 0)])
        sim.run(until=30.0)
        net.nodes[0].send(1, 64)
        sim.run(until=35.0)
        assert sim.drops.counts[DropReason.NO_ROUTE] == 1


class TestMprAblation:
    def test_full_linkstate_mode_converges(self):
        sim, net = make_net(CHAIN4, use_mpr=False)
        log = collect_deliveries(net)
        sim.run(until=30.0)
        net.nodes[0].send(3, 64)
        sim.run(until=35.0)
        assert len(log) == 1

    def test_mpr_reduces_tc_transmissions(self):
        def total_control(use_mpr, seed=3):
            sim, net = make_net(STAR + [(200, 200)], seed=seed, use_mpr=use_mpr)
            sim.run(until=60.0)
            return sum(n.routing.stats.control_packets for n in net.nodes)

        assert total_control(True) < total_control(False)
