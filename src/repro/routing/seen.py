"""Bounded duplicate-suppression caches for flood forwarding.

Every flooding protocol in the suite (AODV/DSR/CBRP RREQs, OLSR TCs,
blind flooding) needs the same thing: "have I relayed this flood id
already?", answered from a cache that cannot grow without bound over a
long run. Before this module each protocol carried its own inline copy
of the pattern; the shared implementations here are drop-in ports with
identical observable behavior (same capacity trigger, same age cutoff,
same eviction order).

Two shapes:

* :class:`SeenCache` — keys with timestamps and **aging**: once the
  cache exceeds its capacity, entries older than ``now - horizon`` are
  pruned in one sweep (the RREQ-id pattern).
* :class:`SeenSet` — pure FIFO of keys with a hard capacity (the
  flooding origin-uid pattern). Keys are assumed never to be re-marked
  after eviction (uids are monotone), which makes set + deque exactly
  equivalent to the OrderedDict it replaces.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, Set

__all__ = ["SeenCache", "SeenSet"]


class SeenCache:
    """Timestamped seen-keys cache with bounded aging.

    Parameters
    ----------
    horizon:
        Seconds an entry stays relevant; pruning keeps entries with
        ``t >= now - horizon``.
    cap:
        Size that triggers a prune sweep (amortized O(1) per mark).
    """

    __slots__ = ("horizon", "cap", "_seen")

    def __init__(self, horizon: float, cap: int = 2048):
        self.horizon = horizon
        self.cap = cap
        self._seen: Dict[Hashable, float] = {}

    def __len__(self) -> int:
        return len(self._seen)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._seen

    def __iter__(self):
        return iter(self._seen)

    def mark(self, key: Hashable, now: float) -> bool:
        """Record *key*; True if it was new, False if a duplicate."""
        seen = self._seen
        if key in seen:
            return False
        seen[key] = now
        if len(seen) > self.cap:
            cutoff = now - self.horizon
            self._seen = {k: t for k, t in seen.items() if t >= cutoff}
        return True

    def insert(self, key: Hashable, now: float) -> None:
        """Record *key* unconditionally (own flood ids at origination)."""
        self._seen[key] = now


class SeenSet:
    """FIFO seen-keys set with a hard capacity bound."""

    __slots__ = ("cap", "_seen", "_order")

    def __init__(self, cap: int = 4096):
        self.cap = cap
        self._seen: Set[Hashable] = set()
        self._order: Deque[Hashable] = deque()

    def __len__(self) -> int:
        return len(self._seen)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._seen

    def mark(self, key: Hashable) -> bool:
        """Record *key*; True if it was new, False if a duplicate."""
        seen = self._seen
        if key in seen:
            return False
        seen.add(key)
        order = self._order
        order.append(key)
        if len(seen) > self.cap:
            seen.discard(order.popleft())
        return True
