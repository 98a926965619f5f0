"""Hot-path instrumentation counters.

Every optimisation layer of the engine (batch mobility kinematics, the
channel fan-out cache, spatial-grid incremental updates, event-heap
compaction, the DCF contention arena) increments a counter here, so a
regression in any cache's hit ratio is visible in
``MetricsSummary.perf``, the CLI, and ``BENCH_kernel.json`` without
re-profiling.

One :class:`PerfCounters` block lives on each :class:`Simulator`, which
hands it to every layer at construction; a layer built on its own (as
in tests) makes a fresh block. Counting is plain integer addition on a
slot — cheap enough to stay on unconditionally, so no counter site
tests for ``None``.

:data:`COUNTERS` is the one list of names: it fixes the slots, the
``as_dict()`` order and the sweep CSV's ``perf_*`` column order.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["COUNTERS", "PerfCounters"]

#: Every counter, in canonical order. BENCH_kernel.json and the CLI
#: tables present counters in this sequence, so additions go at the end.
COUNTERS = (
    "fanout_cache_hits",  # channel geometry served from the per-(src, epoch) memo
    "fanout_cache_misses",  # channel geometry computed fresh
    "batch_position_evals",  # positions(t) rows answered by the fused expression
    # scalar_position_evals always reads 0 (every mobility model is
    # piecewise-linear, so the manager has no per-node fallback): the
    # benchmark harness reads it by name.
    "scalar_position_evals",
    "segment_refreshes",  # mobility segments re-published into the manager's arrays
    "grid_rebuilds",  # spatial grid built from scratch
    "grid_incremental_updates",  # spatial grid refreshed by re-binning only moved nodes
    "heap_compactions",  # lazy-cancel heap dead-entry purges
    # events_pooled and phy_legacy_arrivals always read 0 (events are
    # never reused; the per-pair PHY is gone): the benchmark harness
    # reads both by name.
    "events_pooled",
    "phy_batch_arrivals",  # receiver arrivals resolved on the channel's arrival ledger
    "phy_legacy_arrivals",
    # mac_timer_events and mac_wheel_sentinels count only a standalone
    # TimerWheel's timers and sentinels; no engine path uses one (DCF
    # timers are heap events), so in a run both read 0: the benchmark
    # harness reads both by name.
    "mac_timer_events",
    "mac_wheel_sentinels",
    "mac_edges_dispatched",  # medium-edge MAC transitions the arena had to dispatch
    "mac_edges_suppressed",  # medium-edge MAC callbacks proven no-ops and skipped
)


class PerfCounters:
    """Fixed, slotted counter block for one simulation: ``perf.<name> += n``."""

    __slots__ = COUNTERS

    def __init__(self) -> None:
        for name in COUNTERS:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Counter snapshot in :data:`COUNTERS` order."""
        return {name: getattr(self, name) for name in COUNTERS}

    def fanout_hit_ratio(self) -> float:
        """Fraction of transmissions whose geometry came from the memo."""
        total = self.fanout_cache_hits + self.fanout_cache_misses
        return self.fanout_cache_hits / total if total else 0.0

    def mac_edge_suppression_ratio(self) -> float:
        """Fraction of medium-edge MAC notifications the arena proved
        to be no-ops and skipped entirely."""
        suppressed = self.mac_edges_suppressed
        total = suppressed + self.mac_edges_dispatched
        return suppressed / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items() if v)
        return f"PerfCounters({fields})"
