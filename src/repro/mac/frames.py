"""MAC-layer frames and IEEE 802.11 (DSSS) constants.

Sizes and timings follow the 802.11 DSSS PHY as configured in ns-2's
``Mac/802_11`` defaults, which is what the paper's simulations used:
2 Mb/s data rate, 192 µs PLCP preamble+header sent at 1 Mb/s, 10 µs
SIFS, 20 µs slots, DIFS = SIFS + 2·slot, CWmin 31, CWmax 1023.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..core.errors import PacketError
from ..net.packet import BROADCAST, Packet

__all__ = ["FrameType", "Frame", "Dot11", "reset_frame_uids"]


class FrameType:
    """MAC frame types (plain strings for cheap comparison/tracing)."""

    RTS = "rts"
    CTS = "cts"
    DATA = "mac-data"
    ACK = "ack"


class Dot11:
    """IEEE 802.11 DSSS constants (ns-2 defaults)."""

    SLOT = 20e-6
    SIFS = 10e-6
    DIFS = SIFS + 2 * SLOT  # 50 us
    #: PLCP preamble + header, transmitted at 1 Mb/s regardless of data rate.
    PLCP_OVERHEAD = 192e-6
    CW_MIN = 31
    CW_MAX = 1023
    #: Retry limit for frames preceded by RTS (long) and not (short).
    SHORT_RETRY_LIMIT = 7
    LONG_RETRY_LIMIT = 4
    #: MAC header + FCS bytes on a data frame.
    DATA_HEADER = 34
    RTS_SIZE = 20
    CTS_SIZE = 14
    ACK_SIZE = 14
    #: Data frames longer than this (bytes) use the RTS/CTS exchange.
    RTS_THRESHOLD = 0


_frame_uid = itertools.count()


def reset_frame_uids() -> None:
    """Rewind the frame uid source to 0 (scenario start; see packet
    module).

    The sweep executor reuses worker processes, so without a rewind a
    cached-vs-fresh pair of runs would disagree on frame uids.
    """
    global _frame_uid
    _frame_uid = itertools.count()


class Frame:
    """One MAC frame on the air.

    Attributes
    ----------
    ftype:
        One of :class:`FrameType`.
    src, dst:
        MAC addresses (node ids); *dst* may be ``BROADCAST``.
    size:
        Total bytes on the air excluding PLCP (header + payload).
    payload:
        The wrapped network :class:`Packet` for DATA frames, else None.
    nav:
        Network-allocation-vector duration carried by RTS/CTS (seconds
        the exchange will still occupy the medium after this frame).
    """

    __slots__ = ("uid", "ftype", "src", "dst", "size", "payload", "nav")

    def __init__(
        self,
        ftype: str,
        src: int,
        dst: int,
        size: int,
        payload: Optional[Packet] = None,
        nav: float = 0.0,
    ):
        if size <= 0:
            raise PacketError(f"frame size must be > 0, got {size}")
        if ftype == FrameType.DATA and payload is None:
            raise PacketError("DATA frame requires a packet payload")
        if ftype != FrameType.DATA and payload is not None:
            raise PacketError(f"{ftype} frame must not carry a payload")
        self.uid = next(_frame_uid)
        self.ftype = ftype
        self.src = src
        self.dst = dst
        self.size = size
        self.payload = payload
        self.nav = nav

    @property
    def is_broadcast(self) -> bool:
        return self.dst == BROADCAST

    def airtime(self, bitrate: float) -> float:
        """Time on the air at *bitrate*, including PLCP overhead."""
        return Dot11.PLCP_OVERHEAD + self.size * 8.0 / bitrate

    @classmethod
    def data(cls, src: int, dst: int, packet: Packet, nav: float = 0.0) -> "Frame":
        """Wrap *packet* in a DATA frame with the 802.11 MAC header."""
        return cls(
            FrameType.DATA, src, dst, Dot11.DATA_HEADER + packet.size, packet, nav
        )

    @classmethod
    def rts(cls, src: int, dst: int, nav: float) -> "Frame":
        return cls(FrameType.RTS, src, dst, Dot11.RTS_SIZE, None, nav)

    @classmethod
    def cts(cls, src: int, dst: int, nav: float) -> "Frame":
        return cls(FrameType.CTS, src, dst, Dot11.CTS_SIZE, None, nav)

    @classmethod
    def ack(cls, src: int, dst: int) -> "Frame":
        return cls(FrameType.ACK, src, dst, Dot11.ACK_SIZE, None, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Frame {self.ftype} {self.src}->{self.dst} "
            f"size={self.size} uid={self.uid}>"
        )
