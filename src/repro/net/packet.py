"""Network-layer packet model.

A :class:`Packet` is what routing agents and traffic agents exchange;
the MAC layer wraps it in a frame (see :mod:`repro.mac.frames`). Packets
are mutable — forwarding decrements TTL and appends hops — but the
*payload* (a protocol message object or application datum) is treated as
immutable and shared between copies.

Node addresses are small integers (the node's index); ``BROADCAST``
(-1) addresses all neighbors within radio range.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Optional

from ..core.errors import PacketError

__all__ = [
    "Packet",
    "PacketKind",
    "BROADCAST",
    "packet_uid_counter",
    "reset_packet_uids",
]

#: Link/network broadcast address.
BROADCAST = -1

#: Default network-layer TTL (matches typical ns-2 ad hoc setups).
DEFAULT_TTL = 32

#: Shared uid source. Uids only need to be unique within one run, but the
#: sweep executor keeps worker processes alive across cells, so the
#: counter must be rewound at scenario start (``reset_packet_uids``) for
#: cached and fresh runs to see identical uid sequences.
packet_uid_counter = itertools.count()


def reset_packet_uids() -> None:
    """Rewind the uid source to 0 (called at scenario build time)."""
    global packet_uid_counter
    packet_uid_counter = itertools.count()


class PacketKind:
    """Enumeration of packet kinds (plain strings for cheap comparison)."""

    DATA = "data"
    CONTROL = "control"


class Packet:
    """One network-layer packet.

    Attributes
    ----------
    uid:
        Process-unique identifier of this hop copy (dedup caches, traces).
    origin_uid:
        The uid of the original packet; preserved across :meth:`copy`,
        so end-to-end identity survives per-hop rebroadcast copies.
    kind:
        ``PacketKind.DATA`` or ``PacketKind.CONTROL``.
    proto:
        Owning protocol tag, e.g. ``"cbr"``, ``"aodv"``, ``"dsr"``.
    src, dst:
        Network-layer endpoints (node ids); *dst* may be ``BROADCAST``.
    size:
        Payload size in bytes (headers are accounted by the MAC frame).
    ttl:
        Remaining hop budget; forwarding a packet with ttl 0 raises.
    hops:
        Hops traversed so far.
    created:
        Simulation time the packet was created (for delay metrics).
    payload:
        Protocol message object or application datum; shared on copy.
    route:
        Optional source route (list of node ids), used by DSR.
    """

    __slots__ = (
        "uid",
        "origin_uid",
        "kind",
        "proto",
        "src",
        "dst",
        "size",
        "ttl",
        "hops",
        "created",
        "payload",
        "route",
        "salvage",
    )

    def __init__(
        self,
        kind: str,
        proto: str,
        src: int,
        dst: int,
        size: int,
        created: float,
        ttl: int = DEFAULT_TTL,
        payload: Any = None,
        route: Optional[List[int]] = None,
    ):
        if size < 0:
            raise PacketError(f"packet size must be >= 0, got {size}")
        if ttl < 0:
            raise PacketError(f"ttl must be >= 0, got {ttl}")
        self.uid = next(packet_uid_counter)
        self.origin_uid = self.uid
        self.kind = kind
        self.proto = proto
        self.src = src
        self.dst = dst
        self.size = size
        self.ttl = ttl
        self.hops = 0
        self.created = created
        self.payload = payload
        self.route = route
        #: DSR salvage counter (travels with the packet across hops).
        self.salvage = 0

    # ------------------------------------------------------------------ api

    @property
    def is_broadcast(self) -> bool:
        """Whether the network-layer destination is the broadcast address."""
        return self.dst == BROADCAST

    @property
    def is_data(self) -> bool:
        return self.kind == PacketKind.DATA

    def decrement_ttl(self) -> None:
        """Consume one hop of TTL; raises :class:`PacketError` at zero."""
        if self.ttl <= 0:
            raise PacketError(f"TTL expired on packet uid={self.uid}")
        self.ttl -= 1
        self.hops += 1

    def copy(self) -> "Packet":
        """A forwarding copy with a fresh uid and the same payload object.

        Used when a broadcast must be re-broadcast by many nodes: each
        transmission is a distinct packet at the MAC layer but carries
        the same protocol message.
        """
        p = Packet.__new__(Packet)
        p.uid = next(packet_uid_counter)
        p.origin_uid = self.origin_uid
        p.kind = self.kind
        p.proto = self.proto
        p.src = self.src
        p.dst = self.dst
        p.size = self.size
        p.ttl = self.ttl
        p.hops = self.hops
        p.created = self.created
        p.payload = self.payload
        p.route = list(self.route) if self.route is not None else None
        p.salvage = self.salvage
        return p

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet uid={self.uid} {self.proto}/{self.kind} "
            f"{self.src}->{self.dst} size={self.size} ttl={self.ttl}>"
        )
