"""Routing control-plane microbenchmarks.

The kernel benches (``test_perf_kernel.py``) cover the event loop, the
channel fan-out, and mobility; at 100+ nodes the remaining hot path is
the pure-Python routing control plane — DSDV table dumps and advert
processing, and DSR link-cache lookups. These benches isolate that cost
behind a sink MAC (frames are swallowed, so no PHY/MAC time is mixed
into the measurement).
"""

from repro.core import Simulator
from repro.routing.dsdv import Dsdv, _Advert
from repro.routing.dsr_cache import LinkCache

#: Destinations in the warmed DSDV table / advert (≈ a 120-node network).
N_DESTS = 120


class _SinkMac:
    """Swallows frames: isolates routing-layer cost from MAC/PHY."""

    def __init__(self):
        self.sent = 0
        self.upper = None

    def send(self, packet, next_hop):
        self.sent += 1
        return True

    def purge_next_hop(self, next_hop):
        return 0


def _warmed_dsdv(sim, node_id, n_dests=N_DESTS):
    """A DSDV agent whose table holds *n_dests* one-hop-learned routes.

    Its id space holds the two agents' ids 0 and 1 and the routes'
    destinations 2 … n_dests + 1.
    """
    agent = Dsdv(
        sim, node_id, _SinkMac(), sim.rng.stream(f"dsdv.{node_id}"), n_ids=n_dests + 2
    )
    entries = [
        (d, 1.0, 100)
        for d in range(2, n_dests + 2)
        if d != node_id
    ]
    pkt = agent.make_control(_Advert(entries), 8 + 12 * len(entries))
    agent.on_control(pkt, 1, 1e-9)
    sim.run()  # drain the triggered update the installs scheduled
    return agent


def _steady_advert(agent):
    """An advert that matches *agent*'s table: the reject-path workload."""
    entries = [
        (d, 1.0, 100)
        for d in range(2, N_DESTS + 2)
        if d != agent.addr
    ]
    return agent.make_control(_Advert(entries), 8 + 12 * len(entries))


def _ring_cache(owner=0, n=200, lifetime=1e6):
    """A connected 200-node link graph: ring plus 100 chord links."""
    cache = LinkCache(owner, lifetime=lifetime, max_links=4096)
    for i in range(n):
        cache.add((i, (i + 1) % n), 0.0)
    for i in range(0, n, 2):
        a, b = i, (i * 7 + 13) % n
        if a != b:
            cache.add((a, b), 0.0)
    return cache


def test_perf_routing_control(benchmark):
    """Composite control-plane round: dumps + advert receive + lookups.

    Five periodic full-table dumps, five steady-state advert receives,
    one link refresh, and fifty link-cache route lookups — the per-node
    control-plane work a large DSDV/DSR simulation performs between
    data packets.
    """
    sim = Simulator(seed=11)
    sender = _warmed_dsdv(sim, 0)
    receiver = _warmed_dsdv(sim, 1)
    advert = _steady_advert(receiver)
    cache = _ring_cache()
    dsts = [(i * 37 + 5) % 200 for i in range(50)]
    state = {"t": 1.0}

    def run():
        for _ in range(5):
            sender._broadcast_update(full=True)
        for _ in range(5):
            receiver.on_control(advert, 1, 1e-9)
        t = state["t"] = state["t"] + 1e-3
        cache.add((0, 1), t)
        found = 0
        for d in dsts:
            if cache.get(d, t) is not None:
                found += 1
        sim.run()  # drain jittered control transmissions
        return found

    assert benchmark(run) == 50
    assert sender.mac.sent > 0


def test_perf_linkcache_get(benchmark):
    """Route lookups over a stable 300-link graph (memoizable BFS)."""
    cache = _ring_cache()
    dsts = [(i * 37 + 5) % 200 for i in range(50)]
    state = {"t": 1.0}

    def run():
        t = state["t"] = state["t"] + 1e-3
        found = 0
        for d in dsts:
            if cache.get(d, t) is not None:
                found += 1
        return found

    assert benchmark(run) == 50


#: Destinations in the short-update bench's table (a 50-node network).
N_SHORT_DESTS = 50
#: Triggered updates received per round, sizes cycling 1, 2, 3, 4.
N_SHORT_UPDATES = 20


def test_perf_dsdv_short_updates(benchmark):
    """Triggered-update round: 1-4-entry adverts into a 50-route table.

    A vectorised merge pays a fixed per-call cost whatever the advert's
    length, so the short triggered update is its worst case (rare at
    paper scale, but the case a careless extra array op hurts first).
    Each update is heard twice, as on the air: once fresh
    (newer sequence, adopted) and once as a second neighbour's echo of
    the same news (equal sequence, same metric, rejected); the drain
    then fires the receiver's own triggered update. Adverts are built
    outside the timed region, with sequences that advance every round
    so the fresh copy is always news.
    """
    sim = Simulator(seed=11)
    receiver = _warmed_dsdv(sim, 1, N_SHORT_DESTS)
    dests = list(range(2, N_SHORT_DESTS + 2))
    state = {"seq": 100}

    def setup():
        state["seq"] += 2
        seq = state["seq"]
        packets = []
        at = 0
        for i in range(N_SHORT_UPDATES):
            size = 1 + i % 4
            entries = [(dests[(at + j) % len(dests)], 2.0, seq) for j in range(size)]
            at += size
            packets.append(receiver.make_control(_Advert(entries), 8 + 12 * size))
        return (packets,), {}

    def run(packets):
        for pkt in packets:
            receiver.on_control(pkt, 2, 1e-9)
            receiver.on_control(pkt, 3, 1e-9)
        sim.run()  # the triggered update the adoptions scheduled

    sent_before = receiver.mac.sent
    benchmark.pedantic(run, setup=setup, rounds=300, iterations=1, warmup_rounds=5)
    assert receiver.table[dests[0]].seq == state["seq"]
    assert receiver.table[dests[0]].next_hop == 2
    assert receiver.mac.sent > sent_before
