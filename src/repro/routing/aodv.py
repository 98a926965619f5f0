"""AODV — Ad hoc On-demand Distance Vector routing (RFC 3561).

The reactive contender at the heart of the comparison. Routes are
discovered only when needed: the source floods a RREQ (with expanding
ring search), the destination — or an intermediate node with a
fresh-enough route — unicasts a RREP back along the reverse path, and
link breaks on active routes trigger RERRs to the affected upstream
nodes (tracked in per-route precursor lists).

Loop freedom comes from destination sequence numbers: a route is only
replaced by one with a higher destination sequence number, or an equal
one and fewer hops. One known deviation: ``_update_route`` lets an
invalid route adopt any sequence number, an older one included
(RFC 3561 §6.5, §6.7), pinned by ``tests/routing/test_aodv_invariants.py``.

Like the paper's ns-2 configuration, link failures are detected by
link-layer feedback (MAC retry exhaustion) by default; periodic HELLO
beacons can be enabled for MACs without feedback (``hello_interval``).

Simplifications (documented in DESIGN.md): no gratuitous RREPs, no
RREP-ACK/blacklists, and no local repair (RFC 3561 §6.12) — the paper's
AODV predates its wide use, so a transit node that loses its next hop
drops the packet and errors upstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..net.packet import BROADCAST, Packet
from ..net.sendbuffer import SendBuffer
from .base import RoutingProtocol
from .neighbors import NeighborTable
from .seen import SeenCache

__all__ = ["Aodv", "AodvRoute", "Rreq", "Rrep", "Rerr"]

# --- RFC 3561 / ns-2 constants ------------------------------------------

ACTIVE_ROUTE_TIMEOUT = 10.0
MY_ROUTE_TIMEOUT = 2 * ACTIVE_ROUTE_TIMEOUT
NODE_TRAVERSAL_TIME = 0.04
NET_DIAMETER = 30
NET_TRAVERSAL_TIME = 2 * NODE_TRAVERSAL_TIME * NET_DIAMETER
RREQ_RETRIES = 2
TTL_START = 5
TTL_INCREMENT = 2
TTL_THRESHOLD = 7
TIMEOUT_BUFFER = 2
HELLO_INTERVAL = 1.0
ALLOWED_HELLO_LOSS = 3

RREQ_SIZE = 24
RREP_SIZE = 20
RERR_BASE_SIZE = 4
RERR_DEST_SIZE = 8


def ring_traversal_time(ttl: int) -> float:
    """RREQ wait time for a given flood TTL (RFC 3561 §6.4)."""
    return 2.0 * NODE_TRAVERSAL_TIME * (ttl + TIMEOUT_BUFFER)


# --- messages -------------------------------------------------------------


@dataclass
class Rreq:
    orig: int
    orig_seq: int
    rreq_id: int
    dst: int
    dst_seq: int
    dst_seq_known: bool
    hop_count: int


@dataclass
class Rrep:
    orig: int
    dst: int
    dst_seq: int
    hop_count: int
    lifetime: float


@dataclass
class Rerr:
    #: Unreachable (destination, destination-sequence) pairs.
    dests: List[Tuple[int, int]]


# --- state ----------------------------------------------------------------


@dataclass
class AodvRoute:
    """Routing-table entry (RFC 3561 §2)."""

    dst: int
    next_hop: int
    hops: int
    dst_seq: int
    seq_valid: bool
    expiry: float
    valid: bool = True
    precursors: Set[int] = field(default_factory=set)

    def alive(self, now: float) -> bool:
        return self.valid and now < self.expiry


@dataclass
class _Pending:
    """An in-progress route discovery."""

    retries: int
    ttl: int
    timer: object


class Aodv(RoutingProtocol):
    """AODV routing agent.

    Parameters
    ----------
    hello_interval:
        When set, broadcast HELLOs at this period and detect neighbor
        loss by missed HELLOs (for MACs without link-layer feedback).
        ``None`` (default) relies purely on MAC feedback, matching the
        paper's ns-2 setup.
    """

    NAME = "aodv"

    def __init__(
        self,
        sim,
        node_id,
        mac,
        rng,
        hello_interval: Optional[float] = None,
    ):
        super().__init__(sim, node_id, mac, rng)
        self.seq = 0
        self.rreq_id = 0
        self.table: Dict[int, AodvRoute] = {}
        self.buffer = SendBuffer()
        self._pending: Dict[int, _Pending] = {}
        self._seen_rreq = SeenCache(horizon=2 * NET_TRAVERSAL_TIME)
        self.hello_interval = hello_interval
        self.neighbors = (
            NeighborTable(ALLOWED_HELLO_LOSS * hello_interval)
            if hello_interval
            else None
        )

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        if self.hello_interval:
            delay = float(self.rng.uniform(0.0, self.hello_interval))
            self.sim.schedule(delay, self._hello_tick)

    # ------------------------------------------------------------ data path

    def originate(self, packet: Packet) -> None:
        route = self._route(packet.dst)
        if route is not None:
            self._refresh_active(packet.dst, route.next_hop)
            self.send_data(packet, route.next_hop, forwarded=False)
            return
        self.buffer.add(packet, self.sim.now)
        self._start_discovery(packet.dst)

    def on_data_to_forward(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        route = self._route(packet.dst)
        if route is None:
            # No route at an intermediate node: drop and tell upstream.
            self.drop_no_route(packet)
            stale = self.table.get(packet.dst)
            seq = stale.dst_seq + 1 if stale else 0
            self._send_rerr([(packet.dst, seq)])
            return
        self._refresh_active(packet.dst, route.next_hop)
        self._refresh_active(packet.src, prev_hop)
        self.send_data(packet, route.next_hop, forwarded=True)

    def on_data_arrived(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        # Keep the reverse route toward the source alive for replies.
        self._refresh_active(packet.src, prev_hop)

    # ------------------------------------------------------------- routing

    def _route(self, dst: int) -> Optional[AodvRoute]:
        r = self.table.get(dst)
        if r is not None and r.alive(self.sim.now):
            return r
        return None

    def _refresh_active(self, dst: int, next_hop: int) -> None:
        """Extend lifetimes of the routes involved in forwarding."""
        now = self.sim.now
        for addr in (dst, next_hop):
            r = self.table.get(addr)
            if r is not None and r.valid:
                r.expiry = max(r.expiry, now + ACTIVE_ROUTE_TIMEOUT)

    def _update_route(
        self,
        dst: int,
        next_hop: int,
        hops: int,
        dst_seq: int,
        seq_known: bool,
        lifetime: float,
    ) -> AodvRoute:
        """Install/refresh a route following the RFC 6.2 replacement rule."""
        now = self.sim.now
        cur = self.table.get(dst)
        fresher = (
            cur is None
            or not cur.valid
            or not cur.seq_valid
            or dst_seq > cur.dst_seq
            or (dst_seq == cur.dst_seq and hops < cur.hops)
        )
        if cur is None:
            cur = AodvRoute(dst, next_hop, hops, dst_seq, seq_known, now + lifetime)
            self.table[dst] = cur
        elif fresher:
            cur.next_hop = next_hop
            cur.hops = hops
            cur.dst_seq = dst_seq if seq_known else cur.dst_seq
            cur.seq_valid = seq_known or cur.seq_valid
            cur.valid = True
            cur.expiry = max(cur.expiry, now + lifetime)
        else:
            cur.expiry = max(cur.expiry, now + lifetime)
        return cur

    # ----------------------------------------------------------- discovery

    def _start_discovery(self, dst: int) -> None:
        if dst in self._pending:
            return
        self.stats.discoveries += 1
        stale = self.table.get(dst)
        ttl = (
            min(stale.hops + TTL_INCREMENT, NET_DIAMETER)
            if stale is not None and stale.seq_valid
            else TTL_START
        )
        self._send_rreq(dst, ttl)
        timer = self.sim.schedule(ring_traversal_time(ttl), self._rreq_timeout, dst)
        self._pending[dst] = _Pending(retries=0, ttl=ttl, timer=timer)

    def _send_rreq(self, dst: int, ttl: int) -> None:
        self.seq += 1
        self.rreq_id += 1
        stale = self.table.get(dst)
        msg = Rreq(
            orig=self.addr,
            orig_seq=self.seq,
            rreq_id=self.rreq_id,
            dst=dst,
            dst_seq=stale.dst_seq if stale is not None and stale.seq_valid else 0,
            dst_seq_known=stale is not None and stale.seq_valid,
            hop_count=0,
        )
        self._seen_rreq.insert((self.addr, self.rreq_id), self.sim.now)
        pkt = self.make_control(msg, RREQ_SIZE, ttl=ttl)
        self.send_control(pkt, BROADCAST)

    def _rreq_timeout(self, dst: int) -> None:
        pending = self._pending.get(dst)
        if pending is None:
            return
        if self._route(dst) is not None:
            # Route arrived but the flush path missed the pending entry.
            del self._pending[dst]
            self._flush_buffer(dst)
            return
        pending.retries += 1
        if pending.retries > RREQ_RETRIES:
            del self._pending[dst]
            self.drop_buffered(dst)
            return
        # Expanding ring: widen, then go network-wide.
        if pending.ttl < TTL_THRESHOLD:
            pending.ttl = min(pending.ttl + TTL_INCREMENT, TTL_THRESHOLD)
        else:
            pending.ttl = NET_DIAMETER
        self._send_rreq(dst, pending.ttl)
        wait = ring_traversal_time(pending.ttl) * (2**pending.retries)
        pending.timer = self.sim.schedule(wait, self._rreq_timeout, dst)

    def _flush_buffer(self, dst: int) -> None:
        route = self._route(dst)
        if route is None:
            return
        for pkt in self.buffer.take_for(dst, self.sim.now):
            self._refresh_active(dst, route.next_hop)
            self.send_data(pkt, route.next_hop, forwarded=False)

    # -------------------------------------------------------------- control

    def on_control(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        msg = packet.payload
        if isinstance(msg, Rreq):
            self._on_rreq(packet, msg, prev_hop)
        elif isinstance(msg, Rrep):
            self._on_rrep(packet, msg, prev_hop, rx_power)
        elif isinstance(msg, Rerr):
            self._on_rerr(msg, prev_hop)

    # -- RREQ ---------------------------------------------------------------

    def _on_rreq(self, packet: Packet, msg: Rreq, prev_hop: int) -> None:
        if not self._seen_rreq.mark((msg.orig, msg.rreq_id), self.sim.now):
            return

        hops_to_orig = msg.hop_count + 1
        # Reverse route toward the originator.
        self._update_route(
            msg.orig,
            prev_hop,
            hops_to_orig,
            msg.orig_seq,
            True,
            NET_TRAVERSAL_TIME * 2,
        )
        if prev_hop != msg.orig:
            self._update_route(prev_hop, prev_hop, 1, 0, False, ACTIVE_ROUTE_TIMEOUT)

        if msg.dst == self.addr:
            # We are the destination: answer with our own sequence number.
            if msg.dst_seq_known:
                self.seq = max(self.seq, msg.dst_seq)
            reply = Rrep(
                orig=msg.orig,
                dst=self.addr,
                dst_seq=self.seq,
                hop_count=0,
                lifetime=MY_ROUTE_TIMEOUT,
            )
            self._send_rrep(reply, prev_hop)
            return

        route = self._route(msg.dst)
        can_answer = (
            route is not None
            and route.seq_valid
            and (not msg.dst_seq_known or route.dst_seq >= msg.dst_seq)
        )
        if can_answer:
            # Intermediate reply; wire up precursors both ways.
            route.precursors.add(prev_hop)
            rev = self.table.get(msg.orig)
            if rev is not None:
                rev.precursors.add(route.next_hop)
            reply = Rrep(
                orig=msg.orig,
                dst=msg.dst,
                dst_seq=route.dst_seq,
                hop_count=route.hops,
                lifetime=max(route.expiry - self.sim.now, 0.0),
            )
            self._send_rrep(reply, prev_hop)
            return

        # Keep flooding while TTL lasts.
        if packet.ttl > 1:
            fwd_msg = Rreq(
                msg.orig,
                msg.orig_seq,
                msg.rreq_id,
                msg.dst,
                msg.dst_seq,
                msg.dst_seq_known,
                msg.hop_count + 1,
            )
            fwd = self.make_control(fwd_msg, RREQ_SIZE, ttl=packet.ttl - 1)
            self.send_control(fwd, BROADCAST)

    # -- RREP ---------------------------------------------------------------

    def _send_rrep(self, msg: Rrep, next_hop: int) -> None:
        pkt = self.make_control(msg, RREP_SIZE, dst=msg.orig, ttl=NET_DIAMETER)
        self.send_control(pkt, next_hop)

    def _on_rrep(self, packet: Packet, msg: Rrep, prev_hop: int, rx_power: float) -> None:
        hops_to_dst = msg.hop_count + 1
        route = self._update_route(
            msg.dst, prev_hop, hops_to_dst, msg.dst_seq, True, msg.lifetime
        )
        if prev_hop != msg.dst:
            self._update_route(prev_hop, prev_hop, 1, 0, False, ACTIVE_ROUTE_TIMEOUT)
        self.on_route_established(msg, prev_hop, rx_power)

        if msg.orig == self.addr:
            pending = self._pending.pop(msg.dst, None)
            if pending is not None:
                self.sim.cancel(pending.timer)
            self._flush_buffer(msg.dst)
            return
        # Forward along the reverse route; maintain precursors.
        rev = self._route(msg.orig)
        if rev is None:
            return  # reverse route evaporated; RREP dies here
        route.precursors.add(rev.next_hop)
        rev_entry = self.table.get(msg.orig)
        if rev_entry is not None:
            rev_entry.precursors.add(prev_hop)
        fwd = Rrep(msg.orig, msg.dst, msg.dst_seq, hops_to_dst, msg.lifetime)
        self._send_rrep(fwd, rev.next_hop)

    def on_route_established(self, msg: Rrep, prev_hop: int, rx_power: float) -> None:
        """Hook for PAODV (reacts to route installations)."""

    # -- RERR ---------------------------------------------------------------

    def _send_rerr(self, dests: List[Tuple[int, int]]) -> None:
        size = RERR_BASE_SIZE + RERR_DEST_SIZE * len(dests)
        pkt = self.make_control(Rerr(list(dests)), size, ttl=1)
        self.send_control(pkt, BROADCAST)

    def _on_rerr(self, msg: Rerr, prev_hop: int) -> None:
        affected: List[Tuple[int, int]] = []
        for dst, seq in msg.dests:
            r = self.table.get(dst)
            if r is not None and r.valid and r.next_hop == prev_hop:
                r.valid = False
                r.dst_seq = max(r.dst_seq, seq)
                r.seq_valid = True
                if r.precursors:
                    affected.append((dst, r.dst_seq))
        if affected:
            self._send_rerr(affected)

    # --------------------------------------------------------- link failure

    def link_failed(self, packet: Packet, next_hop: int) -> None:
        affected: List[Tuple[int, int]] = []
        for r in self.table.values():
            if r.valid and r.next_hop == next_hop:
                r.valid = False
                r.dst_seq += 1
                if r.precursors:
                    affected.append((r.dst, r.dst_seq))
        victims = [(packet, next_hop)] if packet is not None else []
        victims.extend(self.mac.purge_next_hop(next_hop))

        for pkt, _nh in victims:
            if not pkt.is_data:
                continue
            if pkt.src == self.addr:
                self.buffer.add(pkt, self.sim.now)
                self._start_discovery(pkt.dst)
            else:
                self.drop_no_route(pkt)

        if affected:
            self._send_rerr(affected)

    # ---------------------------------------------------------------- hello

    def _hello_tick(self) -> None:
        now = self.sim.now
        # HELLO is a RREP about ourselves with TTL 1 (RFC 3561 §6.9);
        # it does not bump the sequence number.
        hello = Rrep(
            orig=BROADCAST,
            dst=self.addr,
            dst_seq=self.seq,
            hop_count=0,
            lifetime=ALLOWED_HELLO_LOSS * self.hello_interval,
        )
        pkt = self.make_control(hello, RREP_SIZE, ttl=1)
        self.send_control(pkt, BROADCAST)
        self.neighbors.purge(now, self._neighbor_lost)
        self.sim.schedule(self.hello_interval, self._hello_tick)

    def _neighbor_lost(self, addr: int) -> None:
        self.link_failed(None, addr)

    def deliver(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        if self.neighbors is not None:
            self.neighbors.heard(prev_hop, self.sim.now, bidirectional=True)
        if (
            packet.proto == self.NAME
            and isinstance(packet.payload, Rrep)
            and packet.payload.orig == BROADCAST
        ):
            # HELLO: neighbor bookkeeping only.
            self._update_route(
                packet.payload.dst,
                prev_hop,
                1,
                packet.payload.dst_seq,
                True,
                packet.payload.lifetime,
            )
            return
        super().deliver(packet, prev_hop, rx_power)
