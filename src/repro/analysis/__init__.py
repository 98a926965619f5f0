"""Result rendering and experiment presets (one per paper figure)."""

from .experiments import (
    DEFAULT,
    FULL,
    PROTOCOL_SET,
    QUICK,
    Scale,
    base_config,
    current_scale,
    run_figure_sweep,
    save_result,
    series_with_ci,
)
from .optimality import OptimalitySummary, PathOptimalityProbe
from .tables import fmt, render_ascii_chart, render_kv_table, render_series_table
from .topology import render_network, render_topology

__all__ = [
    "DEFAULT",
    "FULL",
    "PROTOCOL_SET",
    "QUICK",
    "Scale",
    "base_config",
    "current_scale",
    "run_figure_sweep",
    "save_result",
    "series_with_ci",
    "OptimalitySummary",
    "PathOptimalityProbe",
    "fmt",
    "render_ascii_chart",
    "render_kv_table",
    "render_series_table",
    "render_network",
    "render_topology",
]
