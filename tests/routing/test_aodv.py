"""AODV: discovery, reply-from-cache, error propagation, expanding ring."""

import pytest

from repro.core.drops import DropReason
from repro.routing.aodv import (
    RREQ_RETRIES,
    TTL_START,
    Aodv,
    Rerr,
    Rrep,
    Rreq,
)
from tests.routing.conftest import collect_deliveries, make_static_network

CHAIN4 = [(0, 0), (200, 0), (400, 0), (600, 0)]
CHAIN5 = CHAIN4 + [(800, 0)]


def aodv_factory(sim, node_id, mac, rng, **kwargs):
    return Aodv(sim, node_id, mac, rng, **kwargs)


def make_net(positions, mac="dcf", seed=1, **kwargs):
    return make_static_network(
        positions,
        lambda s, n, m, r: aodv_factory(s, n, m, r, **kwargs),
        mac=mac,
        seed=seed,
    )


class TestDiscovery:
    def test_one_hop_delivery(self):
        sim, net = make_net([(0, 0), (150, 0)])
        log = collect_deliveries(net)
        net.nodes[0].send(1, 64)
        sim.run(until=5.0)
        assert [(nid, p.src) for nid, p, _ in log] == [(1, 0)]

    def test_multi_hop_delivery(self):
        sim, net = make_net(CHAIN5)
        log = collect_deliveries(net)
        net.nodes[0].send(4, 64)
        sim.run(until=10.0)
        assert [(nid, p.src) for nid, p, _ in log] == [(4, 0)]
        # Data followed the chain: hops == 3 intermediate forwards.
        assert log[0][1].hops == 3

    def test_reverse_and_forward_routes_installed(self):
        sim, net = make_net(CHAIN4)
        collect_deliveries(net)
        net.nodes[0].send(3, 64)
        sim.run(until=10.0)
        src_route = net.nodes[0].routing.table[3]
        assert src_route.next_hop == 1 and src_route.hops == 3
        dst_route = net.nodes[3].routing.table[0]
        assert dst_route.next_hop == 2

    def test_second_packet_uses_cached_route_no_new_rreq(self):
        sim, net = make_net(CHAIN4)
        collect_deliveries(net)
        net.nodes[0].send(3, 64)
        sim.run(until=5.0)
        before = net.nodes[0].routing.stats.discoveries
        net.nodes[0].send(3, 64)
        sim.run(until=8.0)
        assert net.nodes[0].routing.stats.discoveries == before

    def test_partitioned_destination_gives_up(self):
        sim, net = make_net([(0, 0), (150, 0), (2000, 0)])
        log = collect_deliveries(net)
        net.nodes[0].send(2, 64)
        sim.run(until=60.0)
        assert log == []
        r = net.nodes[0].routing
        assert sim.drops.counts[DropReason.SEND_BUFFER_GIVEUP] == 1
        assert r.stats.discoveries == 1  # retries are within one discovery
        assert 2 not in r._pending

    def test_buffered_packets_flushed_on_route(self):
        sim, net = make_net(CHAIN4)
        log = collect_deliveries(net)
        for _ in range(5):
            net.nodes[0].send(3, 64)
        sim.run(until=10.0)
        assert len(log) == 5

    def test_bidirectional_flows(self):
        sim, net = make_net(CHAIN4)
        log = collect_deliveries(net)
        net.nodes[0].send(3, 64)
        net.nodes[3].send(0, 64)
        sim.run(until=10.0)
        assert sorted(nid for nid, _, _ in log) == [0, 3]


class TestIntermediateReply:
    def test_reply_from_cache(self):
        sim, net = make_net(CHAIN4)
        collect_deliveries(net)
        # Prime node 1 with a route to 3 via a full discovery 0->3.
        net.nodes[0].send(3, 64)
        sim.run(until=5.0)
        # Now 0 re-discovers after its route expires -> but node 1 can
        # answer directly. Simulate by clearing only node 0's table.
        net.nodes[0].routing.table.clear()
        rreqs_at_3_before = sum(
            1
            for _ in ()
        )
        net.nodes[0].send(3, 64)
        sim.run(until=10.0)
        # Either destination or intermediate answered; route restored.
        assert net.nodes[0].routing.table[3].next_hop == 1


class TestSequenceRules:
    def make_agent(self):
        sim, net = make_net([(0, 0), (150, 0)])
        return sim, net.nodes[0].routing

    def test_higher_seq_replaces(self):
        sim, agent = self.make_agent()
        agent._update_route(9, 1, 4, 10, True, 10.0)
        agent._update_route(9, 2, 6, 12, True, 10.0)
        assert agent.table[9].next_hop == 2

    def test_equal_seq_fewer_hops_replaces(self):
        sim, agent = self.make_agent()
        agent._update_route(9, 1, 4, 10, True, 10.0)
        agent._update_route(9, 2, 2, 10, True, 10.0)
        assert agent.table[9].next_hop == 2

    def test_equal_seq_more_hops_ignored(self):
        sim, agent = self.make_agent()
        agent._update_route(9, 1, 2, 10, True, 10.0)
        agent._update_route(9, 2, 5, 10, True, 10.0)
        assert agent.table[9].next_hop == 1

    def test_lower_seq_ignored(self):
        sim, agent = self.make_agent()
        agent._update_route(9, 1, 2, 10, True, 10.0)
        agent._update_route(9, 2, 1, 8, True, 10.0)
        assert agent.table[9].next_hop == 1


class TestLinkFailure:
    def test_rerr_invalidates_downstream(self):
        sim, net = make_net(CHAIN4)
        collect_deliveries(net)
        net.nodes[0].send(3, 64)
        sim.run(until=5.0)
        # Break 2->3 from node 2's perspective.
        agent2 = net.nodes[2].routing
        agent2.link_failed(None, next_hop=3)
        sim.run(until=6.0)
        # Node 1 heard the RERR (it is a precursor) and invalidated.
        r1 = net.nodes[1].routing.table.get(3)
        assert r1 is not None and not r1.valid
        # And propagated so the source knows too.
        r0 = net.nodes[0].routing.table.get(3)
        assert r0 is not None and not r0.valid

    def test_source_rediscovers_after_failure(self):
        sim, net = make_net(CHAIN4, seed=7)
        log = collect_deliveries(net)
        net.nodes[0].send(3, 64)
        sim.run(until=5.0)
        disc_before = net.nodes[0].routing.stats.discoveries
        # Invalidate everywhere, then send again: must re-discover.
        for node in net.nodes:
            for r in node.routing.table.values():
                r.valid = False
        net.nodes[0].send(3, 64)
        sim.run(until=15.0)
        assert net.nodes[0].routing.stats.discoveries == disc_before + 1
        assert len(log) == 2


class TestExpandingRing:
    def test_initial_ttl_is_ttl_start(self):
        sim, net = make_net([(0, 0), (2000, 0)])
        net.nodes[0].send(1, 64)
        sim.run(until=0.5)
        assert net.nodes[0].routing._pending[1].ttl == TTL_START

    def test_ttl_escalates_to_net_diameter(self):
        sim, net = make_net([(0, 0), (2000, 0)])
        net.nodes[0].send(1, 64)
        sim.run(until=20.0)
        # After all retries the pending entry is gone; during retries the
        # ttl reached NET_DIAMETER. Validate via discovery give-up.
        assert 1 not in net.nodes[0].routing._pending

    def test_rreq_dedup(self):
        sim, net = make_net([(0, 0), (100, 0), (150, 0)])
        collect_deliveries(net)
        net.nodes[0].send(2, 64)
        sim.run(until=5.0)
        # Node 1 saw the RREQ from 0 and possibly 2's rebroadcast; it
        # must have forwarded at most once.
        assert net.nodes[1].routing.stats.control_packets <= 2


class TestHelloMode:
    def test_hello_neighbor_loss_detected(self):
        sim, net = make_net([(0, 0), (150, 0)], mac="ideal", hello_interval=1.0)
        sim.run(until=3.0)
        agent = net.nodes[0].routing
        assert agent.neighbors.is_neighbor(1, sim.now)

    def test_hello_routes_installed(self):
        sim, net = make_net([(0, 0), (150, 0)], mac="ideal", hello_interval=1.0)
        sim.run(until=3.0)
        r = net.nodes[0].routing.table.get(1)
        assert r is not None and r.hops == 1
