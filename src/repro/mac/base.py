"""MAC layer interface and shared statistics.

A MAC sits between the routing layer (above) and the radio (below):

* downward: :meth:`MacLayer.send` accepts a network packet plus the
  resolved next-hop MAC address and eventually puts frames on the air;
* upward: the MAC calls ``upper.deliver(packet, prev_hop, rx_power)``
  for every received network packet, and
  ``upper.link_failed(packet, next_hop)`` when a unicast exhausts its
  retries (the link-layer feedback AODV/DSR/CBRP use to detect broken
  links, as in the paper's ns-2 setup).
"""

from __future__ import annotations

from typing import Optional, Protocol

from ..core.simulator import Simulator
from ..net.packet import Packet
from ..phy.radio import Radio
from .frames import Frame
from .ifq import InterfaceQueue

__all__ = ["MacLayer", "MacStats", "UpperLayer"]


class UpperLayer(Protocol):
    """What the MAC expects from the layer above (the routing agent)."""

    def deliver(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        """A network packet arrived from neighbor *prev_hop*."""

    def link_failed(self, packet: Packet, next_hop: int) -> None:
        """Unicast of *packet* to *next_hop* failed after all retries."""


class MacStats:
    """Per-node MAC counters (feed the normalized-MAC-load metric)."""

    __slots__ = (
        "data_sent",
        "data_received",
        "rts_sent",
        "cts_sent",
        "ack_sent",
        "retries",
        "drops_retry_limit",
        "drops_ifq_full",
        "duplicates_suppressed",
        "responses_abandoned",
    )

    def __init__(self) -> None:
        self.data_sent = 0
        self.data_received = 0
        self.rts_sent = 0
        self.cts_sent = 0
        self.ack_sent = 0
        self.retries = 0
        self.drops_retry_limit = 0
        self.drops_ifq_full = 0
        self.duplicates_suppressed = 0
        #: SIFS responses (third-party CTS/ACK) silently dropped because
        #: the radio was already transmitting when the timer fired — the
        #: peer sees a timeout, not a collision, so without this count
        #: saturated collision domains are indistinguishable from loss.
        self.responses_abandoned = 0

    @property
    def control_frames_sent(self) -> int:
        """RTS + CTS + ACK frames originated by this node."""
        return self.rts_sent + self.cts_sent + self.ack_sent


class MacLayer:
    """Abstract MAC. Subclasses implement the channel-access discipline."""

    #: Whether this MAC is safe under the channel's batched arrival
    #: engine: it must never call ``radio.transmit`` synchronously from
    #: ``on_frame_received``/``medium_changed`` (a mid-batch fan-out
    #: would interleave with the batch being resolved). Conservative
    #: default; opt in per subclass.
    batch_safe = False

    #: Whether the batched engine may deliver frames addressed to other
    #: nodes via ``overhear_nav(until)`` (virtual carrier sense only)
    #: instead of :meth:`on_frame_received`. Requires that an overheard
    #: non-broadcast frame has no effect beyond the NAV update.
    batch_overhear = False

    def __init__(self, sim: Simulator, radio: Radio, ifq_capacity: int = 50):
        self.sim = sim
        self.radio = radio
        self.address = radio.node_id
        self.ifq = InterfaceQueue(ifq_capacity)
        #: Flight recorder, frozen at construction (None = no hooks).
        self._flight = sim.flight
        if sim.flight is not None:
            # A disabled recorder leaves the class-attr None defaults
            # untouched.
            self.ifq.flight = sim.flight
            self.ifq.addr = radio.node_id
        self.stats = MacStats()
        self.upper: Optional[UpperLayer] = None
        radio.mac = self

    # ----------------------------------------------------------- downward

    def send(self, packet: Packet, next_hop: int) -> None:
        """Queue *packet* for transmission to *next_hop* (or BROADCAST)."""
        raise NotImplementedError

    def purge_next_hop(self, next_hop: int) -> list:
        """Drop queued packets for *next_hop*; returns them for salvage."""
        return self.ifq.remove_for_next_hop(next_hop)

    # -------------------------------------------------------- introspection

    def queue_depth(self) -> int:
        """Current interface-queue occupancy (telemetry probe)."""
        return len(self.ifq)

    # ------------------------------------------------------ radio callbacks

    def on_frame_received(self, frame: Frame, rx_power: float) -> None:
        raise NotImplementedError

    def on_transmit_done(self, frame: Frame) -> None:
        raise NotImplementedError

    def medium_changed(self) -> None:
        """The radio's busy/idle state may have changed."""
        # Default: nothing; contention-based MACs react.

    # -------------------------------------------------------------- helpers

    def _deliver_up(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        self.stats.data_received += 1
        if self.upper is not None:
            self.upper.deliver(packet, prev_hop, rx_power)

    def _link_failed(self, packet: Packet, next_hop: int) -> None:
        self.stats.drops_retry_limit += 1
        if self.upper is not None:
            self.upper.link_failed(packet, next_hop)
