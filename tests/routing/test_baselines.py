"""Oracle baseline + base-class plumbing."""

import numpy as np
import pytest

from repro.core.drops import DropReason
from repro.routing.oracle import OracleRouting, shortest_hop_path
from tests.routing.conftest import collect_deliveries, make_static_network

CHAIN5 = [(0, 0), (200, 0), (400, 0), (600, 0), (800, 0)]


class TestShortestHopPath:
    def test_direct(self):
        pos = np.array([[0.0, 0.0], [100.0, 0.0]])
        assert shortest_hop_path(pos, 0, 1, 250.0) == [0, 1]

    def test_chain(self):
        pos = np.array(CHAIN5, dtype=float)
        assert shortest_hop_path(pos, 0, 4, 250.0) == [0, 1, 2, 3, 4]

    def test_partitioned(self):
        pos = np.array([[0.0, 0.0], [1000.0, 0.0]])
        assert shortest_hop_path(pos, 0, 1, 250.0) is None

    def test_self(self):
        pos = np.array(CHAIN5, dtype=float)
        assert shortest_hop_path(pos, 2, 2, 250.0) == [2]

    def test_prefers_fewer_hops(self):
        # Diamond: 0-1-3 and 0-2a-2b-3; 2-hop route must win.
        pos = np.array([[0, 0], [200, 0], [100, 100], [250, 100], [400, 0]], dtype=float)
        path = shortest_hop_path(pos, 0, 4, 250.0)
        assert path == [0, 1, 4]


class TestOracle:
    def make(self, positions, mac="dcf", seed=1):
        holder = {}

        def factory(sim, node_id, mac_layer, rng):
            r = OracleRouting(sim, node_id, mac_layer, rng, radio_range=250.0)
            holder.setdefault("agents", []).append(r)
            return r

        sim, net = make_static_network(positions, factory, mac=mac, seed=seed)
        for agent in holder["agents"]:
            agent.mobility = net.mobility
        return sim, net

    def test_multi_hop_unicast(self):
        sim, net = self.make(CHAIN5)
        log = collect_deliveries(net)
        net.nodes[0].send(4, 64)
        sim.run(until=5.0)
        assert [(nid, p.hops) for nid, p, _ in log] == [(4, 3)]  # 3 forwards on a 4-link path

    def test_no_route_counts_drop(self):
        sim, net = self.make([(0, 0), (1000, 0)])
        log = collect_deliveries(net)
        net.nodes[0].send(1, 64)
        sim.run(until=5.0)
        assert log == []
        assert sim.drops.counts[DropReason.NO_ROUTE] == 1

    def test_intermediate_forwards(self):
        sim, net = self.make(CHAIN5)
        collect_deliveries(net)
        net.nodes[0].send(4, 64)
        sim.run(until=5.0)
        assert net.nodes[1].routing.stats.data_forwarded == 1
        assert net.nodes[2].routing.stats.data_forwarded == 1

    def test_ttl_exhaustion_dropped(self):
        sim, net = self.make(CHAIN5)
        log = collect_deliveries(net)
        net.nodes[0].send(4, 64, ttl=2)  # needs 4 hops
        sim.run(until=5.0)
        assert log == []
        assert sim.drops.counts[DropReason.TTL_EXPIRED] == 1
