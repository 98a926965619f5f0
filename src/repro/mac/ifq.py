"""Interface priority queue between the routing layer and the MAC.

Mirrors ns-2's ``Queue/DropTail/PriQueue``: a bounded drop-tail FIFO in
which routing-protocol packets jump ahead of data packets (they are
small and keeping routes fresh matters more than any one datum). The
50-packet default is the value used throughout the paper's methodology
lineage (Broch et al., Das et al.).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..core.drops import DropLedger, DropReason
from ..core.errors import ConfigurationError
from ..net.packet import Packet

__all__ = ["InterfaceQueue"]

#: Queue entries are (packet, next_hop MAC address).
Entry = Tuple[Packet, int]


class InterfaceQueue:
    """Bounded drop-tail queue with priority for control packets.

    Rejected and evicted packets are counted in *drops* (default: a
    fresh ledger) as dropped at *addr*, the owning node.
    """

    def __init__(
        self,
        capacity: int = 50,
        drops: Optional[DropLedger] = None,
        addr: int = -1,
    ):
        if capacity < 1:
            raise ConfigurationError(f"IFQ capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._control: Deque[Entry] = deque()
        self._data: Deque[Entry] = deque()
        self.drops = drops if drops is not None else DropLedger()
        self.addr = addr
        #: High-water mark of total occupancy.
        self.peak = 0

    def __len__(self) -> int:
        return len(self._control) + len(self._data)

    @property
    def is_empty(self) -> bool:
        return not self._control and not self._data

    def push(self, packet: Packet, next_hop: int) -> bool:
        """Enqueue; returns False (and drops *packet*) when full.

        Control packets that find the queue full evict the newest data
        packet (ns-2 PriQueue behaviour) so routing traffic is only
        dropped when the queue is full of control packets.
        """
        if len(self) >= self.capacity:
            if packet.is_data or not self._data:
                self.drops.drop(packet, DropReason.IFQ_FULL, self.addr)
                return False
            evicted, _ = self._data.pop()  # evict newest data to admit control
            self.drops.drop(evicted, DropReason.IFQ_EVICTED, self.addr)
        if packet.is_data:
            self._data.append((packet, next_hop))
        else:
            self._control.append((packet, next_hop))
        if len(self) > self.peak:
            self.peak = len(self)
        return True

    def pop(self) -> Optional[Entry]:
        """Dequeue the next entry (control first), or ``None`` if empty."""
        if self._control:
            return self._control.popleft()
        if self._data:
            return self._data.popleft()
        return None

    def remove_for_next_hop(self, next_hop: int) -> list[Entry]:
        """Pull out every entry destined to *next_hop* (link-break purge).

        Returns the removed entries so the routing layer can salvage or
        error them.
        """
        removed = []
        for q in (self._control, self._data):
            keep = deque()
            for entry in q:
                if entry[1] == next_hop:
                    removed.append(entry)
                else:
                    keep.append(entry)
            q.clear()
            q.extend(keep)
        return removed

    def clear(self) -> list[Entry]:
        """Empty the queue, returning the data entries that were lost.

        The fault subsystem uses the return value to attribute the
        queued data a crash destroys; callers that predate it may
        ignore it.
        """
        dropped = list(self._data)
        self._control.clear()
        self._data.clear()
        return dropped
