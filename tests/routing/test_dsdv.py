"""DSDV protocol behaviour."""

import math

import pytest

from repro.core.drops import DropReason
from repro.routing.dsdv import Dsdv, DsdvRoute, _Advert
from tests.routing.conftest import collect_deliveries, make_static_network

CHAIN4 = [(0, 0), (200, 0), (400, 0), (600, 0)]


def make_net(positions, mac="dcf", seed=1, n_ids=None, **kwargs):
    """A static DSDV network; its id space defaults to its node count."""
    n_ids = len(positions) if n_ids is None else n_ids
    return make_static_network(
        positions,
        lambda s, n, m, r: Dsdv(s, n, m, r, n_ids=n_ids, **kwargs),
        mac=mac,
        seed=seed,
    )


class TestConvergence:
    def test_two_nodes_learn_each_other(self):
        sim, net = make_net([(0, 0), (150, 0)])
        sim.run(until=40.0)
        r0 = net.nodes[0].routing.table
        assert 1 in r0 and r0[1].metric == 1 and r0[1].next_hop == 1

    def test_chain_full_convergence(self):
        sim, net = make_net(CHAIN4)
        sim.run(until=80.0)
        for node in net.nodes:
            table = node.routing.table
            for dst in range(4):
                if dst == node.node_id:
                    continue
                assert dst in table, (node.node_id, dst)
                assert table[dst].metric == abs(dst - node.node_id)

    def test_next_hops_point_along_chain(self):
        sim, net = make_net(CHAIN4)
        sim.run(until=80.0)
        assert net.nodes[0].routing.table[3].next_hop == 1
        assert net.nodes[3].routing.table[0].next_hop == 2


class TestDataPath:
    def test_delivery_after_convergence(self):
        sim, net = make_net(CHAIN4)
        log = collect_deliveries(net)
        sim.run(until=80.0)
        net.nodes[0].send(3, 64)
        sim.run(until=85.0)
        assert [(nid, p.src) for nid, p, _ in log] == [(3, 0)]

    def test_drop_before_convergence(self):
        sim, net = make_net(CHAIN4)
        log = collect_deliveries(net)
        net.nodes[0].send(3, 64)  # t=0: no routes yet
        sim.run(until=1.0)
        assert log == []
        assert sim.drops.counts[DropReason.NO_ROUTE] == 1

    def test_bidirectional_traffic(self):
        sim, net = make_net(CHAIN4)
        log = collect_deliveries(net)
        sim.run(until=80.0)
        net.nodes[0].send(3, 64)
        net.nodes[3].send(0, 64)
        sim.run(until=85.0)
        assert sorted(nid for nid, _, _ in log) == [0, 3]


class TestSequenceRules:
    def make_agent(self):
        # Rows up to 9 in a 2-node network: the id space is wider.
        sim, net = make_net([(0, 0), (150, 0)], n_ids=10)
        return sim, net.nodes[0].routing

    def test_newer_seq_wins(self):
        sim, agent = self.make_agent()
        agent.table[9] = DsdvRoute(9, 1, 3, 100)
        pkt = agent.make_control(_Advert([(9, 5, 102)]), 20)
        agent.on_control(pkt, prev_hop=1, rx_power=1.0)
        assert agent.table[9].metric == 6 and agent.table[9].seq == 102

    def test_equal_seq_shorter_metric_wins(self):
        sim, agent = self.make_agent()
        agent.table[9] = DsdvRoute(9, 1, 5, 100)
        pkt = agent.make_control(_Advert([(9, 2, 100)]), 20)
        agent.on_control(pkt, prev_hop=1, rx_power=1.0)
        assert agent.table[9].metric == 3

    def test_equal_seq_longer_metric_ignored(self):
        sim, agent = self.make_agent()
        agent.table[9] = DsdvRoute(9, 1, 2, 100)
        pkt = agent.make_control(_Advert([(9, 5, 100)]), 20)
        agent.on_control(pkt, prev_hop=1, rx_power=1.0)
        assert agent.table[9].metric == 2

    def test_stale_seq_ignored(self):
        sim, agent = self.make_agent()
        agent.table[9] = DsdvRoute(9, 1, 2, 100)
        pkt = agent.make_control(_Advert([(9, 1, 98)]), 20)
        agent.on_control(pkt, prev_hop=1, rx_power=1.0)
        assert agent.table[9].seq == 100

    def test_odd_seq_about_self_bumps_own_seq(self):
        sim, agent = self.make_agent()
        agent.seq = 10
        pkt = agent.make_control(_Advert([(agent.addr, math.inf, 13)]), 20)
        agent.on_control(pkt, prev_hop=1, rx_power=1.0)
        assert agent.seq == 14  # next even above the odd break

    def test_infinite_metric_route_invalid(self):
        sim, agent = self.make_agent()
        agent.table[9] = DsdvRoute(9, 1, 2, 100)
        pkt = agent.make_control(_Advert([(9, math.inf, 101)]), 20)
        agent.on_control(pkt, prev_hop=1, rx_power=1.0)
        assert not agent.table[9].valid


class TestLinkFailure:
    def test_link_failed_invalidates_routes(self):
        sim, net = make_net(CHAIN4)
        sim.run(until=80.0)
        agent = net.nodes[1].routing
        assert agent.table[3].valid
        agent.link_failed(None, next_hop=2)
        assert not agent.table[2].valid
        assert not agent.table[3].valid
        assert agent.table[2].seq % 2 == 1

    def test_routes_heal_after_periodic_update(self):
        sim, net = make_net(CHAIN4, seed=3)
        sim.run(until=80.0)
        net.nodes[1].routing.link_failed(None, next_hop=2)
        # The next periodic wave of updates re-establishes even-seq routes.
        sim.run(until=160.0)
        assert net.nodes[1].routing.table[3].valid


class TestOverhead:
    def test_periodic_overhead_accumulates(self):
        sim, net = make_net(CHAIN4)
        sim.run(until=100.0)
        for node in net.nodes:
            # ~6 periodic dumps each in 100 s at 15 s interval.
            assert node.routing.stats.control_packets >= 5

    def test_update_size_grows_with_table(self):
        sim, net = make_net(CHAIN4)
        sim.run(until=100.0)
        r = net.nodes[0].routing
        assert r.stats.control_bytes > r.stats.control_packets * 8
