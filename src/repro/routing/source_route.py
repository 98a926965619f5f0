"""Source-routing core shared by DSR and CBRP.

Both protocols discover a complete node-by-node path with a flooded
route request, stamp it into every data packet's header, and forward
by reading the header. Everything that machinery needs lives here once:
the RREQ/RREP/RERR messages, the path :class:`RouteCache`, the
pending-discovery table with its retry and give-up loop, buffer flush,
source-route stamping, the forwarding prelude, route learning from
carried routes and requests, the RREP/RERR relay along the packet's
source route, and the link-failure pipeline (repair, report upstream,
re-originate at the source, salvage elsewhere).

A subclass declares its header sizes and its discovery schedule — one
``(ttl, wait)`` pair per attempt — as class constants, and overrides
only the hooks where the protocols really differ: :meth:`_path_to`,
:meth:`_answer_from_cache`, :meth:`relays_rreq`, :meth:`_shorten`,
:meth:`_local_repair` and :meth:`_salvage`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..net.packet import BROADCAST, Packet
from ..net.sendbuffer import SendBuffer
from .base import RoutingProtocol
from .seen import SeenCache

__all__ = ["SourceRouting", "RouteCache", "RouteRequest", "RouteReply", "RouteError"]

#: TTL of network-wide floods and of unicast replies and errors.
FLOOD_TTL = 32

#: Seconds a seen RREQ id stays relevant for duplicate suppression.
SEEN_RREQ_HORIZON = 30.0


@dataclass
class RouteRequest:
    orig: int
    rreq_id: int
    target: int
    #: Path accumulated so far, starting with the originator.
    record: Tuple[int, ...]


@dataclass
class RouteReply:
    #: Complete discovered path orig -> ... -> target.
    route: Tuple[int, ...]


@dataclass
class RouteError:
    #: The broken link, reported toward *orig*.
    from_node: int
    to_node: int
    orig: int


class RouteCache:
    """Path cache: full routes from this node, with expiry.

    Adding a path implicitly provides routes to every intermediate node
    (prefix paths). Lookup returns the shortest live path. When *owner*
    is given, paths that do not start at the owner are rejected on add
    and never returned — defense against miscached foreign routes.
    """

    def __init__(self, lifetime: float = 300.0, capacity: int = 64, owner=None):
        self.lifetime = lifetime
        self.capacity = capacity
        self.owner = owner
        self._paths: List[Tuple[Tuple[int, ...], float]] = []

    def __len__(self) -> int:
        return len(self._paths)

    def add(self, path: Sequence[int], now: float) -> None:
        """Cache *path* (``path[0]`` must be the owning node)."""
        path = tuple(path)
        if len(path) < 2 or len(set(path)) != len(path):
            return  # trivial or looping paths are useless
        if self.owner is not None and path[0] != self.owner:
            return  # foreign route: unusable as a source route from here
        expiry = now + self.lifetime
        for stored, exp in self._paths:
            if stored == path:
                self._paths.remove((stored, exp))
                break
        self._paths.append((path, expiry))
        if len(self._paths) > self.capacity:
            self._paths.pop(0)

    def get(self, dst: int, now: float) -> Optional[Tuple[int, ...]]:
        """Shortest live path whose prefix reaches *dst*."""
        best: Optional[Tuple[int, ...]] = None
        for path, expiry in self._paths:
            if expiry <= now:
                continue
            if dst in path:
                prefix = path[: path.index(dst) + 1]
                if len(prefix) >= 2 and (best is None or len(prefix) < len(best)):
                    best = prefix
        return best

    def remove_link(self, a: int, b: int) -> None:
        """Truncate every cached path at link *a*–*b* (either direction)."""
        updated: List[Tuple[Tuple[int, ...], float]] = []
        for path, expiry in self._paths:
            cut = len(path)
            for i in range(len(path) - 1):
                if (path[i] == a and path[i + 1] == b) or (
                    path[i] == b and path[i + 1] == a
                ):
                    cut = i + 1
                    break
            if cut >= 2:
                updated.append((path[:cut], expiry))
        self._paths = updated

    def purge_expired(self, now: float) -> None:
        self._paths = [(p, e) for p, e in self._paths if e > now]


@dataclass
class _Pending:
    #: Index of the current attempt in ``DISCOVERY_SCHEDULE``.
    attempt: int
    timer: object = None


class SourceRouting(RoutingProtocol):
    """Base agent for source-routed on-demand protocols."""

    #: Header bytes of a RREQ and a RREP before their address lists.
    RREQ_BASE_SIZE: int
    RREP_BASE_SIZE: int
    #: Bytes per address in a route record or source route.
    ADDR_SIZE = 4
    RERR_SIZE = 16
    #: One ``(ttl, wait)`` pair per discovery attempt. When the last
    #: wait expires without a route, the buffered packets are dropped.
    DISCOVERY_SCHEDULE: Tuple[Tuple[int, float], ...]

    def __init__(self, sim, node_id, mac, rng):
        super().__init__(sim, node_id, mac, rng)
        self.cache = RouteCache(owner=node_id)
        self.buffer = SendBuffer()
        self.rreq_id = 0
        self._pending: Dict[int, _Pending] = {}
        self._seen_rreq = SeenCache(horizon=SEEN_RREQ_HORIZON)

    # ------------------------------------------------------------ data path

    def originate(self, packet: Packet) -> None:
        path = self._path_to(packet.dst)
        if path is not None:
            self._stamp_and_send(packet, path, forwarded=False)
            return
        self.buffer.add(packet, self.sim.now)
        self._start_discovery(packet.dst)

    def _path_to(self, dst: int) -> Optional[Sequence[int]]:
        """Source route for a locally originated packet, or None."""
        return self.cache.get(dst, self.sim.now)

    def _stamp_and_send(self, packet: Packet, path: Sequence[int], forwarded: bool) -> None:
        packet.route = list(path)
        # Source-route header: one address per hop.
        packet.size += self.ADDR_SIZE * len(path)
        self.send_data(packet, path[1], forwarded=forwarded)

    def on_data_to_forward(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        route = packet.route
        if not route or self.addr not in route:
            self.drop_no_route(packet)
            return
        i = route.index(self.addr)
        if i + 1 >= len(route):
            self.drop_no_route(packet)
            return
        self._shorten(route, i)
        self._learn(route, i)
        self.send_data(packet, route[i + 1], forwarded=True)

    def on_data_arrived(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        route = packet.route
        if route and self.addr in route:
            i = route.index(self.addr)
            self.cache.add(tuple(reversed(route[: i + 1])), self.sim.now)

    def _shorten(self, route: List[int], i: int) -> None:
        """Hook: splice hops out of *route* after our position *i*."""

    def _learn(self, route: List[int], i: int) -> None:
        """Cache a carried route's onward suffix and reverse prefix."""
        now = self.sim.now
        self.cache.add(route[i:], now)
        self.cache.add(tuple(reversed(route[: i + 1])), now)

    # ----------------------------------------------------------- discovery

    def _start_discovery(self, dst: int) -> None:
        if dst in self._pending:
            return
        self.stats.discoveries += 1
        pending = self._pending[dst] = _Pending(attempt=0)
        self._attempt(dst, pending)

    def _attempt(self, dst: int, pending: _Pending) -> None:
        ttl, wait = self.DISCOVERY_SCHEDULE[pending.attempt]
        self._send_rreq(dst, ttl)
        pending.timer = self.sim.schedule(wait, self._discovery_timeout, dst)

    def _send_rreq(self, dst: int, ttl: int) -> None:
        self.rreq_id += 1
        msg = RouteRequest(self.addr, self.rreq_id, dst, record=(self.addr,))
        self._seen_rreq.insert((self.addr, self.rreq_id), self.sim.now)
        pkt = self.make_control(msg, self.RREQ_BASE_SIZE + self.ADDR_SIZE, ttl=ttl)
        self.send_control(pkt, BROADCAST)

    def _discovery_timeout(self, dst: int) -> None:
        pending = self._pending.get(dst)
        if pending is None:
            return
        if self.cache.get(dst, self.sim.now) is not None:
            del self._pending[dst]
            self._flush_buffer(dst)
            return
        pending.attempt += 1
        if pending.attempt >= len(self.DISCOVERY_SCHEDULE):
            del self._pending[dst]
            self.drop_buffered(dst)
            return
        self._attempt(dst, pending)

    def _flush_buffer(self, dst: int) -> None:
        path = self.cache.get(dst, self.sim.now)
        if path is None:
            return
        for pkt in self.buffer.take_for(dst, self.sim.now):
            self._stamp_and_send(pkt, path, forwarded=False)

    # -------------------------------------------------------------- control

    def on_control(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        msg = packet.payload
        if isinstance(msg, RouteRequest):
            self._on_rreq(packet, msg)
        elif isinstance(msg, RouteReply):
            self._on_rrep(packet, msg)
        elif isinstance(msg, RouteError):
            self._on_rerr(packet, msg)

    def _on_rreq(self, packet: Packet, msg: RouteRequest) -> None:
        if self.addr in msg.record:
            return
        if not self._seen_rreq.mark((msg.orig, msg.rreq_id), self.sim.now):
            return
        # Learn the reverse path back to the originator.
        self.cache.add((self.addr,) + tuple(reversed(msg.record)), self.sim.now)
        if msg.target == self.addr:
            self._send_rrep(msg.record + (self.addr,))
            return
        if self._answer_from_cache(msg):
            return
        if packet.ttl > 1 and self.relays_rreq():
            record = msg.record + (self.addr,)
            fwd = self.make_control(
                RouteRequest(msg.orig, msg.rreq_id, msg.target, record),
                self.RREQ_BASE_SIZE + self.ADDR_SIZE * len(record),
                ttl=packet.ttl - 1,
            )
            self.send_control(fwd, BROADCAST)

    def _answer_from_cache(self, msg: RouteRequest) -> bool:
        """Hook: reply to *msg* on the target's behalf; True if replied."""
        return False

    def relays_rreq(self) -> bool:
        """Whether this node rebroadcasts route requests it cannot answer."""
        return True

    def _send_rrep(self, route: Tuple[int, ...]) -> None:
        """Unicast the discovered *route* back to its originator.

        We are never ``route[0]``: a request already carrying our
        address is ignored, so the path back has at least one hop.
        """
        back = route[route.index(self.addr) :: -1]
        size = self.RREP_BASE_SIZE + self.ADDR_SIZE * len(route)
        pkt = self.make_control(RouteReply(route), size, dst=route[0], ttl=FLOOD_TTL)
        pkt.route = list(back)
        self.send_control(pkt, back[1])

    def _on_rrep(self, packet: Packet, msg: RouteReply) -> None:
        if packet.dst != self.addr:
            self._relay(packet)
            return
        # Originator: cache the route and release buffered data.
        self.cache.add(msg.route, self.sim.now)
        dst = msg.route[-1]
        pending = self._pending.pop(dst, None)
        if pending is not None:
            self.sim.cancel(pending.timer)
        self._flush_buffer(dst)

    def _on_rerr(self, packet: Packet, msg: RouteError) -> None:
        self.cache.remove_link(msg.from_node, msg.to_node)
        if packet.dst != self.addr:
            self._relay(packet)

    def _relay(self, packet: Packet) -> None:
        """Pass a unicast RREP or RERR on along its source route."""
        route = packet.route or ()
        if self.addr in route:
            i = route.index(self.addr)
            if i + 1 < len(route):
                self.send_control(packet.copy(), route[i + 1])

    # --------------------------------------------------------- link failure

    def link_failed(self, packet: Packet, next_hop: int) -> None:
        self.cache.remove_link(self.addr, next_hop)
        victims = [(packet, next_hop)] if packet is not None else []
        victims.extend(self.mac.purge_next_hop(next_hop))
        for pkt, _nh in victims:
            if not pkt.is_data or self._local_repair(pkt, next_hop):
                continue
            self._report_break(pkt, next_hop)
            if pkt.src != self.addr:
                self._salvage(pkt)
                continue
            # Source: strip the dead route and route the packet afresh.
            if pkt.route:
                pkt.size = max(0, pkt.size - self.ADDR_SIZE * len(pkt.route))
                pkt.route = None
            self.originate(pkt)

    def _local_repair(self, pkt: Packet, dead_hop: int) -> bool:
        """Hook: route *pkt* around *dead_hop* in place; True if done."""
        return False

    def _report_break(self, pkt: Packet, dead_hop: int) -> None:
        """Unicast a RERR for our link to *dead_hop* back to *pkt*'s source."""
        route = pkt.route
        if pkt.src == self.addr or not route or self.addr not in route:
            return
        back = route[route.index(self.addr) :: -1]
        msg = RouteError(self.addr, dead_hop, pkt.src)
        rerr = self.make_control(msg, self.RERR_SIZE, dst=pkt.src, ttl=FLOOD_TTL)
        rerr.route = back
        # Built before the check: with nobody upstream (a salvaged packet
        # failing at its salvager) the RERR still takes a packet uid, and
        # every later uid, which flight traces record, depends on that.
        if len(back) >= 2:
            self.send_control(rerr, back[1])

    def _salvage(self, pkt: Packet) -> None:
        """Hook for a transit packet whose next hop died. Default: lost."""
        self.drop_no_route(pkt)
