"""DSR link cache variant."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.dsr import Dsr
from repro.routing.dsr_cache import LinkCache
from tests.routing.conftest import collect_deliveries, make_static_network

CHAIN4 = [(0, 0), (200, 0), (400, 0), (600, 0)]


class TestLinkCacheUnit:
    def test_add_and_get(self):
        c = LinkCache(owner=0)
        c.add((0, 1, 2, 3), now=0.0)
        assert c.get(3, 1.0) == (0, 1, 2, 3)

    def test_composes_paths_from_separate_routes(self):
        """The link cache's superpower: links from two different routes
        compose into a path no packet ever carried."""
        c = LinkCache(owner=0)
        c.add((0, 1, 2), now=0.0)
        c.add((5, 2, 7), now=0.0)  # links usable regardless of root
        assert c.get(7, 1.0) == (0, 1, 2, 7)

    def test_path_cache_cannot_compose(self):
        from repro.routing.source_route import RouteCache

        c = RouteCache(owner=0)
        c.add((0, 1, 2), now=0.0)
        c.add((5, 2, 7), now=0.0)  # rejected: not rooted at the owner
        assert c.get(7, 1.0) is None

    def test_shortest_path_chosen(self):
        c = LinkCache(owner=0)
        c.add((0, 1, 2, 9), now=0.0)
        c.add((0, 9), now=0.0)
        assert c.get(9, 1.0) == (0, 9)

    def test_remove_link(self):
        c = LinkCache(owner=0)
        c.add((0, 1, 2), now=0.0)
        c.remove_link(1, 2)
        assert c.get(2, 1.0) is None
        assert c.get(1, 1.0) == (0, 1)

    def test_per_link_expiry(self):
        c = LinkCache(owner=0, lifetime=10.0)
        c.add((0, 1), now=0.0)
        c.add((1, 2), now=8.0)
        # At t=11 link 0-1 expired, so no route at all.
        assert c.get(2, 11.0) is None
        assert c.get(2, 9.0) == (0, 1, 2)

    def test_refresh_extends_expiry(self):
        c = LinkCache(owner=0, lifetime=10.0)
        c.add((0, 1), now=0.0)
        c.add((0, 1), now=8.0)
        assert c.get(1, 15.0) == (0, 1)

    def test_relearned_expired_link_is_usable_again(self):
        """A lookup after expiry memoizes "no route"; re-learning the
        same link must not be mistaken for a refresh of a live one."""
        c = LinkCache(owner=0, lifetime=10.0)
        c.add((0, 1), now=0.0)
        assert c.get(1, 10.0) is None
        c.add((0, 1), now=10.0)
        assert c.get(1, 10.0) == (0, 1)

    def test_owner_self_query(self):
        c = LinkCache(owner=0)
        c.add((0, 1), now=0.0)
        assert c.get(0, 1.0) is None

    def test_max_links_evicts_stalest(self):
        c = LinkCache(owner=0, max_links=3)
        for i, t in enumerate([0.0, 1.0, 2.0, 3.0]):
            c.add((100 + i, 200 + i), now=t)
        assert len(c) == 3

    def test_max_links_eviction_order(self):
        """Eviction removes the earliest-expiry links, and a refresh
        rescues a link that would otherwise be stalest."""
        c = LinkCache(owner=0, max_links=3, lifetime=10.0)
        c.add((0, 1), now=0.0)  # expiry 10
        c.add((0, 2), now=1.0)  # expiry 11
        c.add((0, 3), now=2.0)  # expiry 12
        c.add((0, 1), now=5.0)  # refresh: expiry 15, no longer stalest
        c.add((0, 4), now=6.0)  # overflow: evicts (0, 2), now stalest
        assert c.get(1, 6.5) == (0, 1)
        assert c.get(2, 6.5) is None
        assert c.get(3, 6.5) == (0, 3)
        assert c.get(4, 6.5) == (0, 4)

    def test_loop_path_rejected(self):
        c = LinkCache(owner=0)
        c.add((0, 1, 0), now=0.0)
        assert len(c) == 0

    def test_purge_expired(self):
        c = LinkCache(owner=0, lifetime=5.0)
        c.add((0, 1), now=0.0)
        c.add((0, 2), now=10.0)
        c.purge_expired(now=7.0)
        assert len(c) == 1


def per_query_bfs(cache: LinkCache, dst: int, now: float):
    """What ``LinkCache.get`` means, with no memo: one BFS per lookup
    over the links alive at *now*, neighbours in sorted order."""
    if dst == cache.owner:
        return None
    adj = {}
    for (a, b), expiry in cache._links.items():
        if expiry > now:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    if cache.owner not in adj or dst not in adj:
        return None
    prev = {}
    frontier = [cache.owner]
    seen = {cache.owner}
    while frontier:
        nxt = []
        for u in frontier:
            for v in sorted(adj[u]):
                if v not in seen:
                    seen.add(v)
                    prev[v] = u
                    nxt.append(v)
        frontier = nxt
    if dst not in prev:
        return None
    path = [dst]
    while path[-1] != cache.owner:
        path.append(prev[path[-1]])
    return tuple(reversed(path))


_NODE = st.integers(min_value=0, max_value=7)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.lists(_NODE, min_size=2, max_size=4)),
        st.tuples(st.just("remove"), st.tuples(_NODE, _NODE)),
        st.tuples(st.just("purge"), st.none()),
        st.tuples(st.just("get"), _NODE),
    ),
    min_size=1, max_size=40,
)


@given(ops=_OPS, steps=st.lists(st.floats(0.0, 4.0), min_size=40, max_size=40))
@settings(max_examples=200, deadline=None)
def test_memoized_tree_matches_per_query_bfs(ops, steps):
    """The shared BFS tree and its invalidation rules (structural
    epoch, expiry window, lazy purge) never change an answer."""
    cache = LinkCache(owner=0, lifetime=10.0, max_links=6)
    now = 0.0
    for (op, arg), dt in zip(ops, steps):
        now += dt
        if op == "add":
            cache.add(arg, now)
        elif op == "remove":
            cache.remove_link(*arg)
        elif op == "purge":
            cache.purge_expired(now)
        else:
            assert cache.get(arg, now) == per_query_bfs(cache, arg, now)
    for dst in range(8):
        assert cache.get(dst, now) == per_query_bfs(cache, dst, now)


class TestDsrOverLinkCache:
    def make_net(self, **kwargs):
        return make_static_network(
            CHAIN4,
            lambda s, n, m, r: Dsr(s, n, m, r, cache_kind="link", **kwargs),
            mac="dcf",
            mac_kwargs={"promiscuous": True},
        )

    def test_delivery_works(self):
        sim, net = self.make_net()
        log = collect_deliveries(net)
        net.nodes[0].send(3, 64)
        sim.run(until=10.0)
        assert len(log) == 1
        assert log[0][1].route == [0, 1, 2, 3]

    def test_unknown_cache_kind_rejected(self):
        with pytest.raises(ValueError):
            make_static_network(
                CHAIN4,
                lambda s, n, m, r: Dsr(s, n, m, r, cache_kind="hash"),
            )
