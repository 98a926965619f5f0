"""CBRP — Cluster Based Routing Protocol (draft-ietf-manet-cbrp-spec).

The third reactive contender. Nodes organize into 2-hop-diameter
clusters via the lowest-ID rule; route discovery floods are pruned to
**cluster heads and gateways only**, which is CBRP's answer to the
RREQ-storm problem (the A4 ablation quantifies the pruning). Data is
source-routed like DSR — the shared machinery is
:class:`~repro.routing.source_route.SourceRouting` — with two CBRP
twists implemented here:

* **route shortening** — a forwarder that can hear a node further down
  the route skips the intermediate hops;
* **local repair** — on a broken link the forwarder tries to bridge to
  the next hop through a common neighbor (it knows its neighbors'
  neighbor tables from their HELLOs) before falling back to a RERR.

Simplifications (DESIGN.md): routes record actual node paths rather
than cluster-address sequences (the draft's "loose" routes are
tightened to node paths on first use anyway), and the head contention
timer is a fixed three HELLO periods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..net.packet import BROADCAST, Packet
from .neighbors import NeighborTable
from .source_route import FLOOD_TTL, SourceRouting

__all__ = ["Cbrp", "CbrpHello", "UNDECIDED", "MEMBER", "HEAD"]

HELLO_INTERVAL = 2.0
NEIGHB_HOLD = 3 * HELLO_INTERVAL
#: A head yielding to a lower-id head waits this long first.
CONTENTION_PERIOD = 3 * HELLO_INTERVAL

HELLO_BASE_SIZE = 16
NEIGH_ENTRY_SIZE = 6

MAX_REPAIRS = 1

UNDECIDED = "undecided"
MEMBER = "member"
HEAD = "head"


@dataclass
class CbrpHello:
    role: str
    #: Head this node is affiliated with (its own id if HEAD, -1 if none).
    head: int
    #: Sender's bidirectional neighbors: id -> (role, head affiliation).
    neighbors: Dict[int, Tuple[str, int]]


class Cbrp(SourceRouting):
    """CBRP routing agent.

    Parameters
    ----------
    prune_flood:
        When False (A4 ablation), every node forwards RREQs — blind
        flooding, isolating the value of cluster-based pruning.
    """

    NAME = "cbrp"
    RREQ_BASE_SIZE = 16
    RREP_BASE_SIZE = 16
    #: Network-wide floods only, with doubling waits.
    DISCOVERY_SCHEDULE = ((FLOOD_TTL, 0.5), (FLOOD_TTL, 1.0), (FLOOD_TTL, 2.0), (FLOOD_TTL, 4.0))

    def __init__(self, sim, node_id, mac, rng, prune_flood: bool = True):
        super().__init__(sim, node_id, mac, rng)
        self.prune_flood = prune_flood
        self.role = UNDECIDED
        self.neighbors = NeighborTable(NEIGHB_HOLD)
        #: When a lower-id competing head was first heard (contention).
        self._contend_since: Optional[float] = None
        #: Local repairs performed (ablation metric).
        self.repairs = 0

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        self.sim.schedule(float(self.rng.uniform(0.0, HELLO_INTERVAL)), self._hello_tick)

    # ----------------------------------------------------------- clustering

    def my_head(self) -> int:
        """Affiliated cluster head (own id when HEAD, -1 when none)."""
        if self.role == HEAD:
            return self.addr
        heads = self._head_neighbors()
        return min(heads) if heads else -1

    def _head_neighbors(self) -> List[int]:
        now = self.sim.now
        return [
            e.addr
            for e in self.neighbors.alive_entries(now)
            if e.bidirectional and e.meta.get("role") == HEAD
        ]

    def is_gateway(self) -> bool:
        """Member that bridges clusters (hears 2+ heads or a foreign member)."""
        if self.role == HEAD:
            return False
        heads = self._head_neighbors()
        if len(heads) >= 2:
            return True
        mine = self.my_head()
        now = self.sim.now
        for e in self.neighbors.alive_entries(now):
            if not e.bidirectional:
                continue
            their_head = e.meta.get("head", -1)
            if their_head not in (-1, mine) and e.meta.get("role") != HEAD:
                return True
        return False

    def relays_rreq(self) -> bool:
        """Cluster pruning: only heads and gateways relay the flood."""
        return not self.prune_flood or self.role == HEAD or self.is_gateway()

    def _update_role(self) -> None:
        now = self.sim.now
        bidir = [
            e for e in self.neighbors.alive_entries(now) if e.bidirectional
        ]
        heads = [e.addr for e in bidir if e.meta.get("role") == HEAD]

        if self.role == HEAD:
            lower_heads = [h for h in heads if h < self.addr]
            if lower_heads:
                if self._contend_since is None:
                    self._contend_since = now
                elif now - self._contend_since >= CONTENTION_PERIOD:
                    self.role = MEMBER
                    self._contend_since = None
            else:
                self._contend_since = None
            return

        if heads:
            self.role = MEMBER
            return
        # No head in range: lowest id among non-member bidir neighbors wins.
        contenders = [
            e.addr for e in bidir if e.meta.get("role") != MEMBER
        ]
        if not contenders or self.addr < min(contenders):
            self.role = HEAD
        else:
            self.role = UNDECIDED

    # ---------------------------------------------------------------- hello

    def _hello_tick(self) -> None:
        now = self.sim.now
        self.neighbors.purge(now)
        self._update_role()
        # List every heard neighbor (including not-yet-symmetric ones):
        # a node learns its link is bidirectional precisely by finding
        # itself in our HELLO, so asym entries must be advertised too.
        neigh_map: Dict[int, Tuple[str, int]] = {
            e.addr: (e.meta.get("role", UNDECIDED), e.meta.get("head", -1))
            for e in self.neighbors.alive_entries(now)
        }
        msg = CbrpHello(self.role, self.my_head(), neigh_map)
        size = HELLO_BASE_SIZE + NEIGH_ENTRY_SIZE * len(neigh_map)
        pkt = self.make_control(msg, size, ttl=1)
        self.send_control(pkt, BROADCAST)
        self.sim.schedule(HELLO_INTERVAL, self._hello_tick)

    def _on_hello(self, msg: CbrpHello, prev_hop: int) -> None:
        now = self.sim.now
        entry = self.neighbors.heard(
            prev_hop, now, bidirectional=self.addr in msg.neighbors
        )
        entry.meta["role"] = msg.role
        entry.meta["head"] = msg.head
        entry.meta["neighbors"] = set(msg.neighbors)
        self._update_role()

    def on_control(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        if isinstance(packet.payload, CbrpHello):
            self._on_hello(packet.payload, prev_hop)
        else:
            super().on_control(packet, prev_hop, rx_power)

    # ------------------------------------------------------------ data path

    def _path_to(self, dst: int) -> Optional[Sequence[int]]:
        """Cached path, else the one-hop shortcut to a symmetric neighbor."""
        now = self.sim.now
        path = self.cache.get(dst, now)
        if path is None and self.neighbors.is_neighbor(dst, now, bidirectional_only=True):
            path = (self.addr, dst)  # no discovery needed
        return path

    def _shorten(self, route: List[int], i: int) -> None:
        """Jump to the farthest downstream node we can hear directly."""
        now = self.sim.now
        for j in range(len(route) - 1, i + 1, -1):
            if self.neighbors.is_neighbor(route[j], now, bidirectional_only=True):
                del route[i + 1 : j]  # splice out the skipped hops
                return

    # --------------------------------------------------------- link failure

    def link_failed(self, packet: Packet, next_hop: int) -> None:
        self.neighbors.remove(next_hop)
        super().link_failed(packet, next_hop)

    def _local_repair(self, pkt: Packet, dead_hop: int) -> bool:
        """Bridge to *dead_hop* via a common neighbor (2-hop repair)."""
        if pkt.salvage >= MAX_REPAIRS or not pkt.route or self.addr not in pkt.route:
            return False
        now = self.sim.now
        i = pkt.route.index(self.addr)
        if i + 1 >= len(pkt.route):
            return False
        # We know each neighbor's neighbor set from its HELLO.
        for e in self.neighbors.alive_entries(now):
            if not e.bidirectional or e.addr == dead_hop:
                continue
            if dead_hop in e.meta.get("neighbors", ()):
                pkt.route.insert(i + 1, e.addr)
                pkt.size += self.ADDR_SIZE
                pkt.salvage += 1
                self.repairs += 1
                self.send_data(pkt, e.addr, forwarded=True)
                return True
        return False
