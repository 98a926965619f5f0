"""Buffer for data packets awaiting route discovery.

Reactive protocols (AODV, DSR, CBRP) cannot forward a packet until a
route exists; packets wait here while discovery runs. Mirrors the ns-2
send buffer: bounded capacity, per-packet deadline, oldest-first
eviction when full.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..core.drops import DropLedger, DropReason
from ..core.errors import ConfigurationError
from .packet import Packet

__all__ = ["SendBuffer"]


class SendBuffer:
    """Bounded holding area for not-yet-routable data packets.

    Parameters
    ----------
    capacity:
        Maximum buffered packets (ns-2 default 64).
    timeout:
        Seconds a packet may wait before it is dropped (ns-2 default 30).
    drops, addr:
        The drop ledger overflow and expiry are counted in, and the
        owning node's address (default: a fresh ledger, no owner).
    """

    def __init__(
        self,
        capacity: int = 64,
        timeout: float = 30.0,
        drops: Optional[DropLedger] = None,
        addr: int = -1,
    ):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {timeout}")
        self.capacity = capacity
        self.timeout = timeout
        self._entries: Deque[Tuple[float, Packet]] = deque()
        self.drops = drops if drops is not None else DropLedger()
        self.addr = addr

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, packet: Packet, now: float) -> None:
        """Buffer *packet*; evicts the oldest entry when full."""
        if len(self._entries) >= self.capacity:
            _, evicted = self._entries.popleft()
            self.drops.drop(evicted, DropReason.SEND_BUFFER_FULL, self.addr)
        self._entries.append((now + self.timeout, packet))

    def take_for(self, dst: int, now: float) -> List[Packet]:
        """Remove and return all live packets destined to *dst*.

        Expired packets encountered along the way are dropped and
        counted.
        """
        kept: Deque[Tuple[float, Packet]] = deque()
        out: List[Packet] = []
        for deadline, pkt in self._entries:
            if deadline <= now:
                self.drops.drop(pkt, DropReason.SEND_BUFFER_EXPIRED, self.addr)
            elif pkt.dst == dst:
                out.append(pkt)
            else:
                kept.append((deadline, pkt))
        self._entries = kept
        return out

    def drop_for(self, dst: int) -> List[Packet]:
        """Remove and return all packets destined to *dst* (give up)."""
        kept: Deque[Tuple[float, Packet]] = deque()
        out: List[Packet] = []
        for deadline, pkt in self._entries:
            if pkt.dst == dst:
                out.append(pkt)
            else:
                kept.append((deadline, pkt))
        self._entries = kept
        return out

    def purge_expired(self, now: float) -> int:
        """Drop every expired packet; returns how many were dropped."""
        kept: Deque[Tuple[float, Packet]] = deque()
        n = 0
        for d, p in self._entries:
            if d > now:
                kept.append((d, p))
                continue
            n += 1
            self.drops.drop(p, DropReason.SEND_BUFFER_EXPIRED, self.addr)
        self._entries = kept
        return n

    def pending_destinations(self) -> set:
        """Destinations that still have buffered packets."""
        return {p.dst for _, p in self._entries}
