"""Single-run and replicated execution helpers."""

from __future__ import annotations

from typing import List, Optional

from ..stats.aggregate import aggregate_summaries
from ..stats.metrics import MetricsSummary
from .build import build_scenario
from .config import ScenarioConfig
from .options import EngineOptions

__all__ = ["run_scenario", "run_replications", "summarize"]


def run_scenario(
    cfg: ScenarioConfig,
    options: Optional[EngineOptions] = None,
) -> MetricsSummary:
    """Build and execute one simulation; returns its metrics.

    *options* defaults to :meth:`EngineOptions.from_env`.
    """
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
