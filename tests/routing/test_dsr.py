"""DSR: cache semantics, discovery, source routing, salvage.

RERR handling shared with CBRP is tested in ``test_source_route.py``.
"""

import pytest

from repro.routing.dsr import Dsr
from repro.routing.source_route import RouteCache
from tests.routing.conftest import collect_deliveries, make_static_network

CHAIN4 = [(0, 0), (200, 0), (400, 0), (600, 0)]


def make_net(positions, seed=1, mac="dcf", **kwargs):
    return make_static_network(
        positions,
        lambda s, n, m, r: Dsr(s, n, m, r, **kwargs),
        mac=mac,
        mac_kwargs={"promiscuous": True},
        seed=seed,
    )


class TestRouteCache:
    def test_add_and_get(self):
        c = RouteCache()
        c.add((0, 1, 2, 3), now=0.0)
        assert c.get(3, 1.0) == (0, 1, 2, 3)

    def test_prefix_paths_available(self):
        c = RouteCache()
        c.add((0, 1, 2, 3), now=0.0)
        assert c.get(1, 1.0) == (0, 1)
        assert c.get(2, 1.0) == (0, 1, 2)

    def test_shortest_path_preferred(self):
        c = RouteCache()
        c.add((0, 1, 2, 9), now=0.0)
        c.add((0, 5, 9), now=0.0)
        assert c.get(9, 1.0) == (0, 5, 9)

    def test_expiry(self):
        c = RouteCache(lifetime=10.0)
        c.add((0, 1), now=0.0)
        assert c.get(1, 5.0) == (0, 1)
        assert c.get(1, 11.0) is None

    def test_remove_link_truncates(self):
        c = RouteCache()
        c.add((0, 1, 2, 3), now=0.0)
        c.remove_link(1, 2)
        assert c.get(3, 1.0) is None
        assert c.get(1, 1.0) == (0, 1)  # prefix before the break survives

    def test_remove_link_reverse_direction(self):
        c = RouteCache()
        c.add((0, 1, 2), now=0.0)
        c.remove_link(2, 1)
        assert c.get(2, 1.0) is None

    def test_loop_paths_rejected(self):
        c = RouteCache()
        c.add((0, 1, 0), now=0.0)
        assert len(c) == 0

    def test_capacity_bounded(self):
        c = RouteCache(capacity=4)
        for i in range(10):
            c.add((0, 100 + i), now=0.0)
        assert len(c) == 4

    def test_purge_expired(self):
        c = RouteCache(lifetime=1.0)
        c.add((0, 1), now=0.0)
        c.add((0, 2), now=5.0)
        c.purge_expired(3.0)
        assert len(c) == 1


class TestDiscoveryAndDelivery:
    def test_one_hop(self):
        sim, net = make_net([(0, 0), (150, 0)])
        log = collect_deliveries(net)
        net.nodes[0].send(1, 64)
        sim.run(until=5.0)
        assert [(nid, p.src) for nid, p, _ in log] == [(1, 0)]

    def test_multi_hop_source_route(self):
        sim, net = make_net(CHAIN4)
        log = collect_deliveries(net)
        net.nodes[0].send(3, 64)
        sim.run(until=10.0)
        assert len(log) == 1
        pkt = log[0][1]
        assert pkt.route == [0, 1, 2, 3]

    def test_source_route_header_grows_packet(self):
        sim, net = make_net(CHAIN4)
        log = collect_deliveries(net)
        net.nodes[0].send(3, 64)
        sim.run(until=10.0)
        pkt = log[0][1]
        assert pkt.size == 64 + 4 * 4

    def test_cached_route_skips_discovery(self):
        sim, net = make_net(CHAIN4)
        collect_deliveries(net)
        net.nodes[0].send(3, 64)
        sim.run(until=5.0)
        d = net.nodes[0].routing.stats.discoveries
        net.nodes[0].send(3, 64)
        sim.run(until=10.0)
        assert net.nodes[0].routing.stats.discoveries == d

    def test_forwarders_learn_routes(self):
        sim, net = make_net(CHAIN4)
        collect_deliveries(net)
        net.nodes[0].send(3, 64)
        sim.run(until=5.0)
        # Node 1 forwarded 0->3 data; it must now know 3 and 0.
        c = net.nodes[1].routing.cache
        assert c.get(3, sim.now) is not None
        assert c.get(0, sim.now) is not None

    def test_reply_from_cache(self):
        sim, net = make_net(CHAIN4)
        collect_deliveries(net)
        net.nodes[0].send(3, 64)
        sim.run(until=5.0)
        # Fresh source 1 asks for 3; neighbor caches can answer without
        # the RREQ reaching node 3... count 3's control activity.
        before = net.nodes[3].routing.stats.control_packets
        net.nodes[1].send(3, 64)
        sim.run(until=10.0)
        # Node 1 itself has a cached route (it forwarded) -> no discovery.
        assert net.nodes[1].routing.stats.discoveries == 0

    def test_no_reply_from_cache_when_disabled(self):
        sim, net = make_net(CHAIN4, reply_from_cache=False)
        log = collect_deliveries(net)
        net.nodes[0].send(3, 64)
        sim.run(until=10.0)
        assert len(log) == 1  # discovery still reaches the target

    def test_partition_gives_up(self):
        sim, net = make_net([(0, 0), (2000, 0)])
        log = collect_deliveries(net)
        net.nodes[0].send(1, 64)
        sim.run(until=30.0)
        assert log == []
        assert net.nodes[0].routing.stats.drops_buffer == 1

    def test_no_periodic_overhead(self):
        sim, net = make_net(CHAIN4)
        sim.run(until=50.0)  # no traffic at all
        assert all(n.routing.stats.control_packets == 0 for n in net.nodes)


class TestErrorsAndSalvage:
    def test_salvage_uses_alternate_route(self):
        sim, net = make_net(CHAIN4)
        agent1 = net.nodes[1].routing
        # Give node 1 an alternate (fake) route to 3 via 2.
        agent1.cache.add((1, 2, 3), now=0.0)
        pkt = net.nodes[0].send(3, 64)  # goes through discovery
        sim.run(until=5.0)
        # Simulate failure of a fresh packet at node 1 toward 9 (unknown).
        p2 = net.nodes[0].send(3, 64)
        sim.run(until=6.0)
        p2.route = [0, 1, 9]  # pretend next hop was 9
        before = agent1.salvages
        agent1.link_failed(p2, next_hop=9)
        assert agent1.salvages == before + 1

    def test_salvage_limit(self):
        sim, net = make_net(CHAIN4)
        agent1 = net.nodes[1].routing
        agent1.cache.add((1, 2, 3), now=0.0)
        pkt = net.nodes[0].send(3, 64)
        sim.run(until=5.0)
        pkt2 = net.nodes[0].send(3, 64)
        sim.run(until=6.0)
        pkt2.route = [0, 1, 9]
        pkt2.salvage = 2  # already salvaged twice elsewhere
        before = agent1.stats.drops_no_route
        agent1.link_failed(pkt2, next_hop=9)
        assert agent1.stats.drops_no_route == before + 1


class TestSnooping:
    def test_overhearing_caches_routes(self):
        # Node 9 sits near the 0-1 link and should overhear data.
        sim, net = make_net(CHAIN4 + [(100, 100)])
        collect_deliveries(net)
        net.nodes[0].send(3, 64)
        sim.run(until=10.0)
        # The bystander is NOT on the route, so it learns nothing
        # (snoop requires self in route) — but route carriers do.
        assert net.nodes[2].routing.cache.get(0, sim.now) is not None
