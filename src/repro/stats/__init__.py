"""Metrics and statistics: collection, summaries, CI aggregation."""

from .aggregate import (
    PointEstimate,
    aggregate_rows,
    aggregate_summaries,
    estimate,
    t_quantile,
)
from .energy import EnergyParams, EnergyReport, account_energy
from .metrics import FlowStats, MetricsCollector, MetricsSummary

__all__ = [
    "PointEstimate",
    "aggregate_rows",
    "aggregate_summaries",
    "estimate",
    "t_quantile",
    "EnergyParams",
    "EnergyReport",
    "account_energy",
    "FlowStats",
    "MetricsCollector",
    "MetricsSummary",
]
