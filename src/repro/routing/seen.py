"""Bounded duplicate-suppression cache for flood forwarding.

Every flooding protocol in the suite (AODV/DSR/CBRP RREQs, OLSR TCs)
needs the same thing: "have I relayed this flood id already?", answered
from a cache that cannot grow without bound over a long run.
:class:`SeenCache` answers it with timestamped keys and **aging**: once
the cache exceeds its capacity, entries older than ``now - horizon`` are
pruned in one sweep.
"""

from __future__ import annotations

from typing import Dict, Hashable

__all__ = ["SeenCache"]


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
