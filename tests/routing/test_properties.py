"""Property-based tests on protocol data structures (hypothesis)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.routing.source_route import RouteCache
from repro.routing.neighbors import NeighborTable

node_ids = st.integers(min_value=0, max_value=30)
paths = st.lists(node_ids, min_size=2, max_size=8, unique=True)


class TestRouteCacheProperties:
    @given(st.lists(paths, max_size=20))
    def test_get_returns_valid_prefix(self, stored):
        """Any returned path starts at the owner, ends at the query
        destination, and contains no repeated nodes."""
        c = RouteCache()
        for p in stored:
            c.add([0] + [x + 1 for x in p], now=0.0)  # owner always 0
        for dst in range(1, 32):
            got = c.get(dst, now=1.0)
            if got is not None:
                assert got[0] == 0
                assert got[-1] == dst
                assert len(set(got)) == len(got)

    @given(st.lists(paths, max_size=20), node_ids, node_ids)
    def test_remove_link_removes_every_occurrence(self, stored, a, b):
        c = RouteCache()
        for p in stored:
            c.add(p, now=0.0)
        c.remove_link(a, b)
        for path, _exp in c._paths:
            for u, v in zip(path, path[1:]):
                assert {u, v} != {a, b}

    @given(st.lists(paths, max_size=30))
    def test_capacity_never_exceeded(self, stored):
        c = RouteCache(capacity=8)
        for p in stored:
            c.add(p, now=0.0)
        assert len(c) <= 8

    @given(paths)
    def test_shortest_prefix_wins(self, p):
        """A directly stored shorter path beats a longer one's prefix."""
        c = RouteCache()
        long_path = tuple(p)
        c.add(long_path, now=0.0)
        dst = long_path[-1]
        direct = (long_path[0], dst)
        if len(long_path) > 2 and dst != long_path[0]:
            c.add(direct, now=0.0)
            assert c.get(dst, now=1.0) == direct


class TestNeighborTableProperties:
    @given(
        st.lists(
            st.tuples(node_ids, st.floats(min_value=0.0, max_value=100.0)),
            max_size=40,
        )
    )
    def test_alive_iff_heard_within_hold(self, events):
        t = NeighborTable(hold_time=10.0)
        last = {}
        for addr, when in sorted(events, key=lambda e: e[1]):
            t.heard(addr, when, bidirectional=True)
            last[addr] = when
        now = 100.0
        alive = set(t.neighbors(now))
        for addr, when in last.items():
            assert (addr in alive) == (now - when <= 10.0)

    @given(st.lists(node_ids, max_size=30))
    def test_purge_removes_exactly_expired(self, addrs):
        t = NeighborTable(hold_time=5.0)
        for i, a in enumerate(addrs):
            t.heard(a, now=float(i % 3), bidirectional=True)
        lost = t.purge(now=6.5, on_lost=None)
        # Entries heard at t in {0, 1} expired (6.5 - t > 5); t=2 survives.
        for a in lost:
            assert t.get(a, 6.5) is None

    def test_bad_hold_time(self):
        with pytest.raises(ValueError):
            NeighborTable(hold_time=0.0)


class TestDsdvSequenceProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),   # advertised seq
                st.integers(min_value=1, max_value=10),   # advertised metric
                st.integers(min_value=1, max_value=5),    # prev hop
            ),
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_installed_seq_never_decreases(self, adverts):
        """Whatever update order arrives, the stored sequence number for
        a destination is monotone non-decreasing (loop-freedom core)."""
        from repro.routing.dsdv import Dsdv, _Advert
        from tests.routing.conftest import make_static_network

        sim, net = make_static_network(
            [(0, 0), (150, 0)],
            lambda s, n, m, r: Dsdv(s, n, m, r),
            mac="ideal",
        )
        agent = net.nodes[0].routing
        seq_seen = 0
        for seq, metric, prev in adverts:
            pkt = agent.make_control(_Advert([(9, float(metric), seq)]), 20)
            agent.on_control(pkt, prev_hop=prev, rx_power=1.0)
            if 9 in agent.table:
                assert agent.table[9].seq >= seq_seen
                seq_seen = agent.table[9].seq


class TestAodvRouteProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),  # dst_seq
                st.integers(min_value=1, max_value=8),   # hops
                st.integers(min_value=1, max_value=5),   # next hop
            ),
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_update_rule_montone(self, updates):
        """RFC 6.2: (seq, -hops) of the installed route never regresses."""
        from repro.routing.aodv import Aodv
        from tests.routing.conftest import make_static_network

        sim, net = make_static_network(
            [(0, 0), (150, 0)],
            lambda s, n, m, r: Aodv(s, n, m, r),
            mac="ideal",
        )
        agent = net.nodes[0].routing
        best = None
        for seq, hops, nh in updates:
            agent._update_route(9, nh, hops, seq, True, 10.0)
            r = agent.table[9]
            key = (r.dst_seq, -r.hops)
            if best is not None:
                assert key >= best
            best = key
