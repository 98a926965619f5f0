"""Single-run and replicated execution helpers."""

from __future__ import annotations

from typing import List

from ..stats.metrics import MetricsSummary
from .build import build_scenario
from .config import ScenarioConfig

__all__ = ["run_scenario", "run_replications"]


def run_scenario(cfg: ScenarioConfig) -> MetricsSummary:
    """Build and execute one simulation; returns its metrics."""
    return build_scenario(cfg).run()


def run_replications(cfg: ScenarioConfig, replications: int) -> List[MetricsSummary]:
    """Run *replications* independent copies of *cfg* sequentially.

    (The parallel version lives in :mod:`repro.scenario.sweep`.)
    """
    return [
        run_scenario(cfg.with_(replication=r)) for r in range(replications)
    ]
