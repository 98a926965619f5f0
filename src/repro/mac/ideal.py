"""Idealized MAC: immediate serialized transmission, no contention.

Used for protocol unit tests (so routing behaviour can be observed
without MAC noise) and for the A6 ablation ("how much of the protocol
gap is MAC contention?"). Frames are sent back to back with no carrier
sense, no RTS/CTS, and no ACK/retry — collisions can still happen at
receivers if two neighbors transmit simultaneously, because the radio
enforces physical reception rules regardless of MAC discipline.

Because there are no acknowledgements, link failures are *not* detected
by this MAC; protocols that rely on link-layer feedback must use HELLO
beacons (they all support it) when running over :class:`IdealMac`.
"""

from __future__ import annotations

from ..core.drops import DropReason
from ..net.packet import BROADCAST, Packet
from .base import MacLayer
from .frames import Frame, FrameType

__all__ = ["IdealMac"]


class IdealMac(MacLayer):
    """FIFO transmit queue straight onto the radio."""

    #: NOT batch-safe: ``on_frame_received`` can synchronously start the
    #: next queued transmission (via ``send`` → ``_try_next``), which
    #: would re-enter the channel inside a batch resolve. The ideal MAC
    #: therefore always runs on the per-pair reference PHY path.
    batch_safe = False

    #: Gap between back-to-back frames (s). Keeps consecutive arrivals
    #: strictly ordered at receivers (a zero gap makes the end of frame
    #: k and the start of frame k+1 float-arithmetic ties).
    INTERFRAME_GAP = 10e-6

    def __init__(self, sim, radio, ifq_capacity: int = 50):
        super().__init__(sim, radio, ifq_capacity)
        self._busy = False

    # ----------------------------------------------------------- downward

    def send(self, packet: Packet, next_hop: int) -> None:
        if not self.ifq.push(packet, next_hop):
            self.stats.drops_ifq_full += 1
            if self._flight is not None:
                self._flight.drop(packet, DropReason.IFQ_FULL, self.address)
            return
        self._try_next()

    # -------------------------------------------------------------- engine

    def _try_next(self) -> None:
        if self._busy or self.radio.is_transmitting:
            return
        entry = self.ifq.pop()
        if entry is None:
            return
        packet, next_hop = entry
        frame = Frame.data(self.address, next_hop, packet)
        self._busy = True
        self.stats.data_sent += 1
        self.radio.transmit(frame)

    # ------------------------------------------------------ radio callbacks

    def on_transmit_done(self, frame: Frame) -> None:
        # No ACK/retry: completion is final.
        self.sim.schedule(self.INTERFRAME_GAP, self._release)

    def _release(self) -> None:
        self._busy = False
        self._try_next()

    def on_frame_received(self, frame: Frame, rx_power: float) -> None:
        if frame.ftype != FrameType.DATA:
            return  # ideal MAC never emits control frames
        if frame.dst != BROADCAST and frame.dst != self.address:
            return  # promiscuous frames ignored (no snooping by default)
        self._deliver_up(frame.payload, frame.src, rx_power)

    def medium_changed(self) -> None:
        # No carrier sensing; but a queued frame may be waiting for our
        # own radio to finish (covered by on_transmit_done).
        pass
