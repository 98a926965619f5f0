"""Hot-path instrumentation counters.

Every optimisation layer added by the vectorized engine (batch mobility
kinematics, the channel fan-out cache, spatial-grid incremental updates,
event-heap compaction and pooling) increments a counter here, so a
regression in any cache's hit ratio is visible in
``MetricsSummary.perf``, the CLI, and ``BENCH_kernel.json`` without
re-profiling.

One :class:`PerfCounters` instance lives on each :class:`Simulator`;
layers share it by reference. Counting is plain integer addition — cheap
enough to stay on unconditionally.

Counter names are **registry-backed**: the kernel counters below are
registered at import time, and any subsystem (the ``repro.obs``
telemetry probes, future caches) can add its own with
:func:`register_counter` without editing this module. ``as_dict()``
iterates in registration order, so the kernel counters keep their
historical positions in ``BENCH_kernel.json`` and new counters append
after them.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["PerfCounters", "register_counter", "registered_counters"]

#: Ordered registry: counter name -> one-line description. Insertion
#: order is the canonical ``as_dict()`` order.
_REGISTRY: Dict[str, str] = {}


def register_counter(name: str, doc: str = "") -> str:
    """Register a counter *name* (idempotent); returns the name.

    Registered counters initialise to 0 on every new
    :class:`PerfCounters` and appear in :meth:`PerfCounters.as_dict` in
    registration order. Increment sites stay plain attribute additions
    (``perf.my_counter += 1``); instances created *before* a late
    registration report 0 for the new name until they increment it.
    """
    if not name.isidentifier():
        raise ValueError(f"counter name must be an identifier, got {name!r}")
    _REGISTRY.setdefault(name, doc)
    return name


def registered_counters() -> Tuple[str, ...]:
    """All registered counter names, in canonical (registration) order."""
    return tuple(_REGISTRY)


# The kernel counter set. Order matters: BENCH_kernel.json and the CLI
# tables present counters in this sequence, so additions go at the end
# (or come from register_counter, which always appends).
register_counter("fanout_cache_hits",
                 "channel geometry served from the per-(src, epoch) memo")
register_counter("fanout_cache_misses", "channel geometry computed fresh")
register_counter("batch_position_evals",
                 "positions(t) calls answered by the fused NumPy expression")
register_counter("scalar_position_evals",
                 "per-node position(t) fallback evaluations")
register_counter("segment_refreshes",
                 "mobility segments re-published into the manager's arrays")
register_counter("grid_rebuilds", "spatial grid built from scratch")
register_counter("grid_incremental_updates",
                 "spatial grid refreshed by re-binning only moved nodes")
register_counter("heap_compactions", "lazy-cancel heap dead-entry purges")
register_counter("events_pooled", "event objects recycled through the freelist")
register_counter("phy_batch_arrivals",
                 "receiver arrivals resolved on the channel's arrival ledger")
register_counter("phy_legacy_arrivals",
                 "always 0 (the per-pair PHY is gone); kept because the "
                 "benchmark harness reads it by name")
register_counter("mac_timer_events",
                 "DCF timers routed through the contention arena's wheel")
register_counter("mac_wheel_sentinels",
                 "heap sentinel events the timer wheel actually pushed")
register_counter("mac_edges_dispatched",
                 "medium-edge MAC transitions the arena had to dispatch")
register_counter("mac_edges_suppressed",
                 "medium-edge MAC callbacks proven no-ops and skipped")


class PerfCounters:
    """Mutable counter block for one simulation (or one sweep session).

    Attribute access is ordinary instance-``__dict__`` access (no
    ``__slots__``), so dynamically registered counters work exactly like
    the kernel set: ``perf.<name> += 1``.
    """

    def __init__(self) -> None:
        for name in _REGISTRY:
            setattr(self, name, 0)

    def incr(self, name: str, n: int = 1) -> None:
        """Increment a (possibly late-registered) counter by *n*."""
        setattr(self, name, getattr(self, name, 0) + n)

    def as_dict(self) -> Dict[str, int]:
        """Counter snapshot in canonical registry order."""
        return {name: getattr(self, name, 0) for name in _REGISTRY}

    def fanout_hit_ratio(self) -> float:
        """Fraction of transmissions whose geometry came from the memo."""
        total = self.fanout_cache_hits + self.fanout_cache_misses
        return self.fanout_cache_hits / total if total else 0.0

    def mac_timer_coalescing_ratio(self) -> float:
        """Fraction of wheel timers that piggybacked on an existing
        sentinel instead of pushing their own heap event."""
        timers = getattr(self, "mac_timer_events", 0)
        sentinels = getattr(self, "mac_wheel_sentinels", 0)
        return (timers - sentinels) / timers if timers else 0.0

    def mac_edge_suppression_ratio(self) -> float:
        """Fraction of medium-edge MAC notifications the arena proved
        to be no-ops and skipped entirely."""
        suppressed = getattr(self, "mac_edges_suppressed", 0)
        total = suppressed + getattr(self, "mac_edges_dispatched", 0)
        return suppressed / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items() if v)
        return f"PerfCounters({fields})"
