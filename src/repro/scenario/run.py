"""Single-run and replicated execution helpers."""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

from ..stats.aggregate import aggregate_summaries
from ..stats.metrics import MetricsSummary
from .build import build_scenario
from .config import ScenarioConfig
from .options import EngineOptions

__all__ = ["run_scenario", "run_replications", "summarize"]


def run_scenario(
    cfg: ScenarioConfig,
    shards: Optional[int] = None,
    options: Optional[EngineOptions] = None,
) -> MetricsSummary:
    """Build and execute one simulation; returns its metrics.

    *options* defaults to :meth:`EngineOptions.from_env`; *shards*
    overrides its shard count. More than one shard routes through the
    spatially sharded engine, whose results are bit-identical for any
    shard count. Configs it cannot split (non-static mobility, a field
    with no radio-disjoint cut, faults, tracing, ...) fall back to the
    single loop silently, or raise under ``options.shard_strict`` (the
    CI determinism leg sets it).
    """
    if options is None:
        options = EngineOptions.from_env()
    if shards is not None:
        options = replace(options, shards=shards)
    if options.shards > 1:
        from ..shard import ShardUnsupported, run_sharded

        try:
            return run_sharded(cfg, options.shards, options=options)
        except ShardUnsupported:
            if options.shard_strict:
                raise
    return build_scenario(cfg, options).run()


def run_replications(cfg: ScenarioConfig, replications: int) -> List[MetricsSummary]:
    """Run *replications* independent copies of *cfg* sequentially.

    (The parallel version lives in :mod:`repro.scenario.sweep`.)
    """
    return [
        run_scenario(cfg.with_(replication=r)) for r in range(replications)
    ]


def summarize(summaries: List[MetricsSummary]) -> dict:
    """Aggregate replications into per-metric point estimates."""
    return aggregate_summaries(summaries)
