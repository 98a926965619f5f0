"""DSR — Dynamic Source Routing (Johnson & Maltz).

The second reactive contender. No periodic traffic at all: the source
discovers a complete node-by-node route, stamps it into every data
packet's header, and intermediate nodes forward purely by reading the
header. Aggressive caching — routes learned from discoveries, from
forwarding, from overheard packets (promiscuous mode), and from route
replies answered out of other nodes' caches — is why DSR posts the
lowest routing overhead in the paper.

The discovery, forwarding and error machinery it shares with CBRP is
:class:`~repro.routing.source_route.SourceRouting`; this module holds
what is DSR's own: replies from cache, salvaging, snooping, and the
choice of a **path cache** (ns-2's default: full paths with expiry,
prefix paths implied, link removal truncates every cached path at the
broken link) or a link cache (:mod:`repro.routing.dsr_cache`).
Salvaging: an intermediate node whose next hop died may re-route the
packet over its own cached path (bounded by ``MAX_SALVAGE`` to prevent
ping-ponging).

Simplifications (DESIGN.md): no gratuitous route shortening replies, no
flow-state extension; the first discovery attempt is the standard
non-propagating (TTL 1) neighbor-cache query.
"""

from __future__ import annotations

from ..core.drops import DropReason
from ..net.packet import Packet
from .dsr_cache import LinkCache
from .source_route import FLOOD_TTL, RouteRequest, SourceRouting

__all__ = ["Dsr"]

#: Maximum times one packet may be salvaged.
MAX_SALVAGE = 2


class Dsr(SourceRouting):
    """DSR routing agent.

    The MAC should run in promiscuous mode so :meth:`snoop` can learn
    routes from overheard source-routed packets (matching ns-2's DSR).
    """

    NAME = "dsr"
    RREQ_BASE_SIZE = 12
    RREP_BASE_SIZE = 12
    #: A non-propagating query that neighbours answer from cache, then
    #: network-wide floods with doubling waits.
    DISCOVERY_SCHEDULE = ((1, 0.03), (FLOOD_TTL, 0.5), (FLOOD_TTL, 1.0), (FLOOD_TTL, 2.0))

    def __init__(
        self,
        sim,
        node_id,
        mac,
        rng,
        reply_from_cache: bool = True,
        cache_kind: str = "path",
    ):
        super().__init__(sim, node_id, mac, rng)
        if cache_kind == "link":
            self.cache = LinkCache(owner=node_id)
        elif cache_kind != "path":
            raise ValueError(f"unknown DSR cache kind {cache_kind!r}")
        self.reply_from_cache = reply_from_cache
        #: Successfully salvaged packets (metric for the cache ablation).
        self.salvages = 0

    def _answer_from_cache(self, msg: RouteRequest) -> bool:
        if not self.reply_from_cache:
            return False
        cached = self.cache.get(msg.target, self.sim.now)
        if cached is None:
            return False
        route = msg.record + cached  # cached starts at self
        if len(set(route)) != len(route):
            return False
        self._send_rrep(route)
        return True

    def _salvage(self, pkt: Packet) -> None:
        """Try to re-route a failed transit packet over our own cache."""
        if pkt.salvage >= MAX_SALVAGE:
            self._drops.drop(pkt, DropReason.SALVAGE_LIMIT, self.addr)
            return
        alt = self.cache.get(pkt.dst, self.sim.now)
        if alt is None:
            self.drop_no_route(pkt)
            return
        pkt.salvage += 1
        self.salvages += 1
        old_len = len(pkt.route) if pkt.route else 0
        pkt.size += self.ADDR_SIZE * (len(alt) - old_len)
        pkt.route = list(alt)
        self.send_data(pkt, alt[1], forwarded=True)

    def snoop(self, packet: Packet, prev_hop: int, mac_dst: int) -> None:
        """Learn from overheard source-routed packets (promiscuous MAC)."""
        route = packet.route
        if route and self.addr in route:
            self._learn(route, route.index(self.addr))
