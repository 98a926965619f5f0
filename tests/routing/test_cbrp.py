"""CBRP: cluster formation, pruned discovery, shortening, local repair."""

import pytest

from repro.core.drops import DropReason
from repro.routing.cbrp import HEAD, MEMBER, Cbrp
from tests.routing.conftest import collect_deliveries, make_static_network

CHAIN4 = [(0, 0), (200, 0), (400, 0), (600, 0)]
CLIQUE3 = [(0, 0), (100, 0), (0, 100)]


def make_net(positions, seed=1, mac="dcf", **kwargs):
    return make_static_network(
        positions,
        lambda s, n, m, r: Cbrp(s, n, m, r, **kwargs),
        mac=mac,
        seed=seed,
    )


class TestClusterFormation:
    def test_lowest_id_becomes_head_in_clique(self):
        sim, net = make_net(CLIQUE3)
        sim.run(until=20.0)
        roles = [n.routing.role for n in net.nodes]
        assert roles[0] == HEAD
        assert roles[1] == MEMBER and roles[2] == MEMBER

    def test_members_affiliate_with_head(self):
        sim, net = make_net(CLIQUE3)
        sim.run(until=20.0)
        assert net.nodes[1].routing.my_head() == 0
        assert net.nodes[2].routing.my_head() == 0

    def test_chain_forms_multiple_clusters(self):
        sim, net = make_net(CHAIN4)
        sim.run(until=30.0)
        heads = {n.node_id for n in net.nodes if n.routing.role == HEAD}
        assert heads  # at least one cluster
        # Every non-head node hears some head.
        for n in net.nodes:
            if n.routing.role != HEAD:
                assert n.routing.my_head() != -1

    def test_isolated_node_becomes_head(self):
        sim, net = make_net([(0, 0), (5000, 0)])
        sim.run(until=20.0)
        assert net.nodes[1].routing.role == HEAD

    def test_head_contention_lower_id_wins(self):
        sim, net = make_net(CLIQUE3)
        sim.run(until=20.0)
        # Force node 1 to head; within the contention period it must
        # yield to head 0 again.
        net.nodes[1].routing.role = HEAD
        sim.run(until=20.0 + 4 * 6.0)
        assert net.nodes[1].routing.role == MEMBER

    def test_gateway_detection(self):
        # Two cliques bridged by node 2: 0-1-2 and 2-3-4 style layout.
        positions = [(0, 0), (150, 0), (300, 0), (450, 0), (600, 0)]
        sim, net = make_net(positions)
        sim.run(until=40.0)
        gateways = [n.node_id for n in net.nodes if n.routing.is_gateway()]
        heads = [n.node_id for n in net.nodes if n.routing.role == HEAD]
        # The chain needs forwarding capacity: heads+gateways must bridge it.
        assert heads
        relset = set(gateways) | set(heads)
        assert any(nid in relset for nid in (1, 2, 3))


class TestDiscoveryAndData:
    def test_one_hop_no_discovery(self):
        sim, net = make_net(CLIQUE3)
        log = collect_deliveries(net)
        sim.run(until=10.0)
        net.nodes[1].send(2, 64)
        sim.run(until=15.0)
        assert len(log) == 1
        assert net.nodes[1].routing.stats.discoveries == 0

    def test_multi_hop_delivery(self):
        sim, net = make_net(CHAIN4)
        log = collect_deliveries(net)
        sim.run(until=30.0)  # clusters settle
        net.nodes[0].send(3, 64)
        sim.run(until=40.0)
        assert [(nid, p.src) for nid, p, _ in log] == [(3, 0)]

    def test_pruning_reduces_rreq_forwards(self):
        def rreq_tx(prune, seed=5):
            positions = [
                (x * 150.0, y * 150.0) for x in range(4) for y in range(3)
            ]
            sim, net = make_net(positions, seed=seed, prune_flood=prune)
            collect_deliveries(net)
            sim.run(until=30.0)
            base = sum(n.routing.stats.control_packets for n in net.nodes)
            net.nodes[0].send(11, 64)
            sim.run(until=40.0)
            return sum(n.routing.stats.control_packets for n in net.nodes) - base

        assert rreq_tx(True) < rreq_tx(False)

    def test_partition_gives_up(self):
        sim, net = make_net([(0, 0), (5000, 0)])
        log = collect_deliveries(net)
        sim.run(until=10.0)
        net.nodes[0].send(1, 64)
        sim.run(until=60.0)
        assert log == []
        assert sim.drops.counts[DropReason.SEND_BUFFER_GIVEUP] == 1


class TestShorteningAndRepair:
    def test_route_shortening_skips_hops(self):
        sim, net = make_net(CHAIN4)
        log = collect_deliveries(net)
        sim.run(until=30.0)
        # Hand node 0 a deliberately long route 0-1-2-3 where 1 can in
        # fact hear 2 only (chain) — shortening is a no-op here. Use a
        # clique instead for a positive case below.
        net.nodes[0].send(3, 64)
        sim.run(until=40.0)
        assert len(log) == 1

    def test_shortening_in_dense_topology(self):
        positions = [(0, 0), (100, 0), (200, 0)]
        sim, net = make_net(positions)
        log = collect_deliveries(net)
        sim.run(until=20.0)
        pkt = net.nodes[0].send(2, 64)
        # Force an inflated route: 0 -> 1 -> 2 where 0 hears 2 directly.
        sim.run(until=25.0)
        assert len(log) == 1
        delivered = log[0][1]
        # Direct neighbor path used (no discovery inflation).
        assert delivered.hops <= 1

    def test_local_repair_bridges_broken_link(self):
        sim, net = make_net(CHAIN4)
        sim.run(until=30.0)
        agent1 = net.nodes[1].routing
        pkt = net.nodes[1].send(3, 64)  # creates and routes a packet
        sim.run(until=31.0)
        victim = net.nodes[1].send(3, 64)
        sim.run(until=32.0)
        # Craft the failure scenario *after* live HELLOs settle: packet's
        # next hop 9 is dead, but neighbor 2 claims 9 as its neighbor.
        e2 = agent1.neighbors.heard(2, sim.now, bidirectional=True)
        e2.meta["neighbors"] = {1, 3, 9}
        victim.route = [0, 1, 9, 3]
        before = agent1.repairs
        agent1.link_failed(victim, next_hop=9)
        assert agent1.repairs == before + 1
        assert victim.route == [0, 1, 2, 9, 3]

    def test_repair_fails_sends_rerr(self):
        sim, net = make_net(CHAIN4)
        sim.run(until=30.0)
        agent2 = net.nodes[2].routing
        victim = net.nodes[0].send(3, 64)
        sim.run(until=31.0)
        victim.route = [0, 1, 2, 9]
        victim.src = 0
        before = agent2.stats.control_packets
        agent2.link_failed(victim, next_hop=9)
        assert agent2.stats.control_packets == before + 1  # the RERR
