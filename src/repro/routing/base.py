"""Routing protocol interface.

A routing agent is the network layer of its node (ns-2 style): it
originates packets for the traffic layer, makes every forwarding
decision, emits protocol control traffic, and reacts to link-layer
failure feedback. It implements the MAC's upper-layer interface.

Control-packet accounting happens here: **every transmission of a
routing control packet — original or forwarded — increments
``stats.control_packets``**, which is exactly the "routing overhead"
the paper reports (Broch et al. convention).
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.drops import DropReason
from ..core.errors import PacketError
from ..core.simulator import Simulator
from ..mac.base import MacLayer
from ..net.packet import BROADCAST, Packet, PacketKind

__all__ = ["RoutingProtocol", "RoutingStats"]


class RoutingStats:
    """Per-node routing-layer counters (drops are in ``sim.drops``)."""

    __slots__ = (
        "control_packets",
        "control_bytes",
        "data_forwarded",
        "discoveries",
    )

    def __init__(self) -> None:
        #: Control transmissions (originated + forwarded).
        self.control_packets = 0
        self.control_bytes = 0
        #: Data packets forwarded on behalf of others.
        self.data_forwarded = 0
        #: Route discoveries initiated (reactive protocols).
        self.discoveries = 0


class RoutingProtocol:
    """Base class for all routing agents.

    Parameters
    ----------
    sim, node_id, mac, rng:
        Kernel, own address, MAC below, and a private RNG stream
        (used for control-traffic jitter).
    """

    #: Protocol tag carried in control packets' ``proto`` field.
    NAME = "base"

    #: Default jitter bound (s) applied to broadcast control packets so
    #: synchronized floods from neighbors do not collide systematically.
    BROADCAST_JITTER = 2e-3

    def __init__(self, sim: Simulator, node_id: int, mac: MacLayer, rng):
        self.sim = sim
        self.addr = node_id
        self.mac = mac
        self.rng = rng
        self.stats = RoutingStats()
        self.node = None  # set by the stack builder
        #: Cleared by fault injection while this node is crashed: a dead
        #: agent neither processes arrivals nor counts control overhead
        #: (its timers still fire, but every send is suppressed).
        self.alive = True
        #: Drop ledger and flight recorder, frozen at construction
        #: (a None recorder means no trace notes).
        self._drops = sim.drops
        self._flight = sim.flight
        mac.upper = self

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Begin periodic behaviour (timers). Default: nothing."""

    def on_node_down(self) -> None:
        """Fault hook: this node just crashed. Default: keep all state.

        A crashed router loses nothing but its liveness — tables, caches
        and sequence numbers survive into recovery exactly as a reboot
        with persistent storage would. Protocols that model volatile
        state can override.
        """

    def on_node_up(self) -> None:
        """Fault hook: this node just recovered. Default: nothing."""

    # ------------------------------------------------------- traffic (down)

    def originate(self, packet: Packet) -> None:
        """Route a locally generated data packet."""
        raise NotImplementedError

    # ------------------------------------------------------- MAC callbacks

    def deliver(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        """Dispatch a received packet: control, local delivery, or forward."""
        if not self.alive:
            # Crashed: nothing is processed while down. A data packet
            # that still reached us (decode completing across the crash
            # instant) dies here.
            if packet.is_data:
                self._drops.drop(packet, DropReason.NODE_DOWN, self.addr)
            return
        if packet.kind == PacketKind.CONTROL:
            if packet.proto == self.NAME:
                self.on_control(packet, prev_hop, rx_power)
            return  # foreign protocol control: not ours to route
        if packet.dst == self.addr or packet.is_broadcast:
            self.on_data_arrived(packet, prev_hop, rx_power)
            self.node.deliver_local(packet, prev_hop)
        else:
            self.on_data_to_forward(packet, prev_hop, rx_power)

    def link_failed(self, packet: Packet, next_hop: int) -> None:
        """MAC retry exhaustion. Default: the packet is lost."""
        if packet is not None and packet.is_data:
            self._drops.drop(packet, DropReason.LINK_LOST, self.addr)

    # ------------------------------------------------------ protocol hooks

    def on_control(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        """Handle a control packet of this protocol."""
        raise NotImplementedError

    def on_data_to_forward(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        """Handle a data packet in transit (must forward or drop)."""
        raise NotImplementedError

    def on_data_arrived(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        """Hook before local delivery (PAODV uses the rx power)."""

    # --------------------------------------------------------------- helpers

    def drop_no_route(self, packet: Packet) -> None:
        """Drop a data packet this node has no route for."""
        self._drops.drop(packet, DropReason.NO_ROUTE, self.addr)

    def drop_buffered(self, dst: int) -> None:
        """Give up on *dst*: drop every packet buffered for it."""
        for pkt in self.buffer.drop_for(dst):
            self._drops.drop(pkt, DropReason.SEND_BUFFER_GIVEUP, self.addr)

    def stranded_packets(self, packet: Optional[Packet], next_hop: int) -> list:
        """The data packets a dead link to *next_hop* leaves here: the
        failed *packet* and every one queued for that neighbour (purged
        from the MAC, since without the link they would only burn
        retries)."""
        victims = [packet] if packet is not None else []
        victims.extend(pkt for pkt, _nh in self.mac.purge_next_hop(next_hop))
        return [pkt for pkt in victims if pkt.is_data]

    def drop_stranded(self, packet: Optional[Packet], next_hop: int) -> None:
        """Lose every :meth:`stranded_packets` (a protocol with no
        discovery to fall back on)."""
        for pkt in self.stranded_packets(packet, next_hop):
            self._drops.drop(pkt, DropReason.LINK_LOST, self.addr)

    def make_control(
        self,
        payload: Any,
        size: int,
        dst: int = BROADCAST,
        ttl: int = 1,
    ) -> Packet:
        """Build a control packet owned by this protocol."""
        return Packet(
            PacketKind.CONTROL,
            self.NAME,
            self.addr,
            dst,
            size,
            created=self.sim.now,
            ttl=ttl,
            payload=payload,
        )

    def send_control(
        self,
        packet: Packet,
        next_hop: int,
        jitter: Optional[float] = None,
    ) -> None:
        """Hand a control packet to the MAC, counting overhead.

        Broadcast control is jittered by default; unicast is immediate.
        Dead nodes (fault injection) send nothing and count nothing —
        overhead only measures packets that actually reached the air.
        """
        if not self.alive:
            return
        self.stats.control_packets += 1
        self.stats.control_bytes += packet.size
        if jitter is None:
            jitter = self.BROADCAST_JITTER if next_hop == BROADCAST else 0.0
        if jitter > 0.0:
            delay = float(self.rng.uniform(0.0, jitter))
            self.sim.schedule(delay, self.mac.send, packet, next_hop)
        else:
            self.mac.send(packet, next_hop)

    def send_data(self, packet: Packet, next_hop: int, forwarded: bool) -> bool:
        """Send a data packet toward *next_hop*, handling TTL.

        Returns False (and counts the drop) when TTL is exhausted.
        """
        if not self.alive:
            # Crashed mid-pipeline: the packet dies here.
            self._drops.drop(packet, DropReason.NODE_DOWN, self.addr)
            return False
        if forwarded:
            try:
                packet.decrement_ttl()
            except PacketError:
                self._drops.drop(packet, DropReason.TTL_EXPIRED, self.addr)
                return False
            self.stats.data_forwarded += 1
        flight = self._flight
        if flight is not None:
            flight.note(
                "forward" if forwarded else "route_tx",
                packet.origin_uid, self.addr, next_hop=next_hop,
            )
        self.mac.send(packet, next_hop)
        return True
