"""OLSR — Optimized Link State Routing (RFC 3626), extension protocol.

Not one of the IPPS'01 contenders, but the proactive design point the
colliding 2014 paper studies, and a natural ablation partner for DSDV:
link-state with **multipoint relays (MPRs)** instead of distance vector.

Each node HELLOs every 2 s (TTL 1) carrying its neighbor list and link
codes; from the two-hop neighborhood each node selects a minimal MPR
set covering all two-hop neighbors. Only nodes *selected* as MPR emit
Topology Control (TC) messages (every 5 s), and only MPRs retransmit
them — this is the flooding reduction the protocol is named for (the
A5 ablation turns it off to measure the saving).

Routing is hop-count shortest path over (local links) ∪ (two-hop
links) ∪ (TC-advertised links), recomputed lazily when state changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from ..net.packet import BROADCAST, Packet
from .base import RoutingProtocol
from .neighbors import NeighborTable
from .seen import SeenCache

__all__ = ["Olsr", "OlsrHello", "OlsrTc"]

HELLO_INTERVAL = 2.0
TC_INTERVAL = 5.0
NEIGHB_HOLD = 3 * HELLO_INTERVAL
TOP_HOLD = 3 * TC_INTERVAL

HELLO_BASE_SIZE = 16
TC_BASE_SIZE = 16
ADDR_SIZE = 4

# Link codes carried in HELLOs.
SYM = "sym"
ASYM = "asym"
MPR = "mpr"


@dataclass
class OlsrHello:
    #: Sender's neighbor map: address -> link code.
    neighbors: Dict[int, str]


@dataclass
class OlsrTc:
    orig: int
    ansn: int
    #: The originator's MPR-selector set (links it advertises).
    selectors: Tuple[int, ...]


class Olsr(RoutingProtocol):
    """OLSR routing agent.

    Parameters
    ----------
    use_mpr:
        When False (A5 ablation), every node emits and relays TCs and
        advertises *all* its symmetric neighbors — classic full
        link-state flooding.
    """

    NAME = "olsr"

    def __init__(self, sim, node_id, mac, rng, use_mpr: bool = True):
        super().__init__(sim, node_id, mac, rng)
        self.use_mpr = use_mpr
        self.neighbors = NeighborTable(NEIGHB_HOLD)
        self.mpr_set: Set[int] = set()
        self.ansn = 0
        #: orig -> (ansn, advertised selector set, expiry)
        self.topology: Dict[int, Tuple[int, Set[int], float]] = {}
        self._seen_tc = SeenCache(horizon=TOP_HOLD, cap=4096)
        self._routes: Dict[int, Tuple[int, int]] = {}  # dst -> (next_hop, dist)
        self._dirty = True

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        self.sim.schedule(float(self.rng.uniform(0.0, HELLO_INTERVAL)), self._hello_tick)
        self.sim.schedule(float(self.rng.uniform(0.0, TC_INTERVAL)), self._tc_tick)

    # ---------------------------------------------------------------- hello

    def _hello_tick(self) -> None:
        now = self.sim.now
        lost = self.neighbors.purge(now)
        if lost:
            self._dirty = True
        self._select_mprs()
        neigh_map: Dict[int, str] = {}
        for e in self.neighbors.alive_entries(now):
            if not e.bidirectional:
                neigh_map[e.addr] = ASYM
            elif e.addr in self.mpr_set:
                neigh_map[e.addr] = MPR
            else:
                neigh_map[e.addr] = SYM
        size = HELLO_BASE_SIZE + ADDR_SIZE * len(neigh_map)
        pkt = self.make_control(OlsrHello(neigh_map), size, ttl=1)
        self.send_control(pkt, BROADCAST)
        self.sim.schedule(HELLO_INTERVAL, self._hello_tick)

    def _on_hello(self, msg: OlsrHello, prev_hop: int) -> None:
        now = self.sim.now
        entry = self.neighbors.heard(
            prev_hop, now, bidirectional=self.addr in msg.neighbors
        )
        entry.meta["twohop"] = {
            a
            for a, code in msg.neighbors.items()
            if code in (SYM, MPR) and a != self.addr
        }
        entry.meta["selected_us"] = msg.neighbors.get(self.addr) == MPR
        self._dirty = True
        self._select_mprs()

    # ------------------------------------------------------------------ mpr

    def mpr_selectors(self) -> Set[int]:
        """Neighbors that chose us as their MPR (we must relay for them)."""
        now = self.sim.now
        return {
            e.addr
            for e in self.neighbors.alive_entries(now)
            if e.bidirectional and e.meta.get("selected_us")
        }

    def _select_mprs(self) -> None:
        """Greedy minimal cover of the two-hop neighborhood (RFC 8.3.1)."""
        now = self.sim.now
        sym = {
            e.addr: set(e.meta.get("twohop", ()))
            for e in self.neighbors.alive_entries(now)
            if e.bidirectional
        }
        if not self.use_mpr:
            # Ablation: everyone relays; "select" all symmetric neighbors.
            new = set(sym)
            if new != self.mpr_set:
                self.mpr_set = new
            return
        two_hop: Set[int] = set()
        for covers in sym.values():
            two_hop |= covers
        two_hop -= set(sym)
        two_hop.discard(self.addr)

        mpr: Set[int] = set()
        uncovered = set(two_hop)
        # Mandatory: sole providers of some two-hop node.
        for t in two_hop:
            providers = [n for n, covers in sym.items() if t in covers]
            if len(providers) == 1:
                mpr.add(providers[0])
        for m in mpr:
            uncovered -= sym[m]
        # Greedy: highest residual coverage first (ties: lowest id).
        while uncovered:
            best = max(sym, key=lambda n: (len(sym[n] & uncovered), -n))
            gain = sym[best] & uncovered
            if not gain:
                break  # unreachable two-hop nodes (stale info)
            mpr.add(best)
            uncovered -= gain
        if mpr != self.mpr_set:
            self.mpr_set = mpr

    # ------------------------------------------------------------------- tc

    def _tc_tick(self) -> None:
        selectors = self.mpr_selectors()
        if not self.use_mpr:
            # Full link-state: advertise all symmetric neighbors.
            selectors = set(self.neighbors.neighbors(self.sim.now, bidirectional_only=True))
        if selectors:
            self.ansn += 1
            msg = OlsrTc(self.addr, self.ansn, tuple(sorted(selectors)))
            size = TC_BASE_SIZE + ADDR_SIZE * len(selectors)
            pkt = self.make_control(msg, size, ttl=32)
            self._seen_tc.insert((self.addr, self.ansn), self.sim.now)
            self.send_control(pkt, BROADCAST)
        self.sim.schedule(TC_INTERVAL, self._tc_tick)

    def _on_tc(self, packet: Packet, msg: OlsrTc, prev_hop: int) -> None:
        now = self.sim.now
        duplicate = not self._seen_tc.mark((msg.orig, msg.ansn), now)
        if not duplicate:
            cur = self.topology.get(msg.orig)
            if cur is None or msg.ansn >= cur[0]:
                self.topology[msg.orig] = (msg.ansn, set(msg.selectors), now + TOP_HOLD)
                self._dirty = True
        # Forwarding rule: only MPRs relay, and only for their selectors.
        if duplicate or msg.orig == self.addr:
            return
        if packet.ttl <= 1:
            return
        relay = (
            prev_hop in self.mpr_selectors()
            if self.use_mpr
            else self.neighbors.is_neighbor(prev_hop, now, bidirectional_only=True)
        )
        if relay:
            fwd = packet.copy()
            fwd.ttl -= 1
            self.send_control(fwd, BROADCAST)

    # -------------------------------------------------------------- control

    def on_control(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        msg = packet.payload
        if isinstance(msg, OlsrHello):
            self._on_hello(msg, prev_hop)
        elif isinstance(msg, OlsrTc):
            self._on_tc(packet, msg, prev_hop)

    # ------------------------------------------------------------ data path

    def _compute_routes(self) -> None:
        """Hop-count BFS over the known topology."""
        now = self.sim.now
        self.topology = {
            o: t for o, t in self.topology.items() if t[2] > now
        }
        adj: Dict[int, Set[int]] = {}

        def link(a: int, b: int) -> None:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)

        for e in self.neighbors.alive_entries(now):
            if e.bidirectional:
                link(self.addr, e.addr)
                for t in e.meta.get("twohop", ()):
                    link(e.addr, t)
        for orig, (_ansn, selectors, _exp) in self.topology.items():
            for s in selectors:
                link(orig, s)

        routes: Dict[int, Tuple[int, int]] = {}
        frontier = sorted(adj.get(self.addr, ()))
        for n in frontier:
            routes[n] = (n, 1)
        dist = 1
        visited = {self.addr, *frontier}
        while frontier:
            nxt = []
            for u in frontier:
                for v in sorted(adj.get(u, ())):
                    if v not in visited:
                        visited.add(v)
                        routes[v] = (routes[u][0], dist + 1)
                        nxt.append(v)
            frontier = nxt
            dist += 1
        self._routes = routes
        self._dirty = False

    def _next_hop(self, dst: int) -> Optional[int]:
        if self._dirty:
            self._compute_routes()
        entry = self._routes.get(dst)
        return entry[0] if entry is not None else None

    def route_distance(self, dst: int) -> Optional[int]:
        """Hop count to *dst* per the current table (None if unknown)."""
        if self._dirty:
            self._compute_routes()
        entry = self._routes.get(dst)
        return entry[1] if entry is not None else None

    def originate(self, packet: Packet) -> None:
        nh = self._next_hop(packet.dst)
        if nh is None:
            self.drop_no_route(packet)
            return
        self.send_data(packet, nh, forwarded=False)

    def on_data_to_forward(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        nh = self._next_hop(packet.dst)
        if nh is None:
            self.drop_no_route(packet)
            return
        self.send_data(packet, nh, forwarded=True)

    # --------------------------------------------------------- link failure

    def link_failed(self, packet: Packet, next_hop: int) -> None:
        self.neighbors.remove(next_hop)
        # Proactive like DSDV: no discovery to fall back on, so the
        # failed packet and the purged queue entries are lost here.
        self.drop_stranded(packet, next_hop)
        self._dirty = True
        self._select_mprs()
