"""Spatially sharded simulation engine.

Partitions a static field into N contiguous strips, runs one full
:class:`~repro.core.simulator.Simulator` per strip (owned nodes active,
the rest inert "ghosts" kept for geometry). Radio-disjoint strips
(island plans — the partitioner prefers cuts at axis gaps wider than
the carrier-sense reach) free-run in parallel and merge to a
:class:`~repro.stats.metrics.MetricsSummary` bit-identical to the
single event loop for any shard count. A field with no radio-disjoint
split is not sharded at all: :func:`run_sharded` raises
:class:`ShardUnsupported` and ``run_scenario`` runs the single loop.
See DESIGN.md "Sharded engine" for the full safety argument.
"""

from .engine import ShardError, ShardUnsupported, run_sharded
from .partition import ShardPlan, make_plan

__all__ = [
    "ShardError",
    "ShardPlan",
    "ShardUnsupported",
    "make_plan",
    "run_sharded",
]
