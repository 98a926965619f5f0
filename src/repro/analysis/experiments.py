"""Experiment presets: one entry per paper figure/table (see DESIGN.md).

Every benchmark in ``benchmarks/`` pulls its scenario from here so the
full-scale (paper) parameters live in exactly one place. Three scales:

* ``full``  — the paper's reconstructed configuration (hours on 1 CPU);
  select with ``MANETSIM_FULL=1``.
* ``default`` — shape-preserving scale-down that runs in minutes.
* ``quick`` — CI smoke scale; select with ``MANETSIM_QUICK=1``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from ..scenario.config import ScenarioConfig
from ..scenario.sweep import SweepResult, run_sweep
from ..stats.aggregate import PointEstimate

__all__ = [
    "Scale",
    "current_scale",
    "base_config",
    "PROTOCOL_SET",
    "pause_values",
    "run_figure_sweep",
    "results_dir",
    "save_result",
]

#: The five contenders of the IPPS'01 study.
PROTOCOL_SET = ("dsdv", "dsr", "aodv", "paodv", "cbrp")


@dataclass(frozen=True)
class Scale:
    """Experiment sizing knobs."""

    name: str
    n_nodes: int
    field: Tuple[float, float]
    duration: float
    replications: int
    pause_values: Tuple[float, ...]
    speed_values: Tuple[float, ...]
    source_counts: Tuple[int, ...]
    node_counts: Tuple[int, ...]


FULL = Scale(
    name="full",
    n_nodes=50,
    field=(1500.0, 300.0),
    duration=900.0,
    replications=5,
    pause_values=(0.0, 30.0, 60.0, 120.0, 300.0, 600.0, 900.0),
    speed_values=(1.0, 5.0, 10.0, 15.0, 20.0),
    source_counts=(10, 20, 30, 40),
    node_counts=(25, 50, 75, 100),
)

# Scaled down from FULL along the axes that only cost wall-clock
# (duration, replication count, grid resolution) while preserving what
# drives the paper's effects: node degree high enough that the static
# network stays connected (40 nodes in 1500x300 ~= degree 15) and speed
# high enough that links break many times per run.
DEFAULT = Scale(
    name="default",
    n_nodes=40,
    field=(1500.0, 300.0),
    duration=150.0,
    replications=1,
    pause_values=(0.0, 50.0, 150.0),
    speed_values=(1.0, 10.0, 20.0),
    source_counts=(10, 20, 30),
    node_counts=(20, 40, 60),
)

QUICK = Scale(
    name="quick",
    n_nodes=20,
    field=(1000.0, 300.0),
    duration=50.0,
    replications=1,
    pause_values=(0.0, 50.0),
    speed_values=(5.0, 20.0),
    source_counts=(5, 10),
    node_counts=(10, 20),
)


def current_scale() -> Scale:
    """Pick the scale from the environment (FULL > QUICK > default).

    A switch is on only when set to ``"1"``, as ``MANETSIM_FLIGHT`` is;
    ``"0"`` and the empty string leave it off.
    """
    if os.environ.get("MANETSIM_FULL") == "1":
        return FULL
    if os.environ.get("MANETSIM_QUICK") == "1":
        return QUICK
    return DEFAULT


def base_config(scale: Scale, **overrides) -> ScenarioConfig:
    """The base scenario at *scale* (paper defaults otherwise)."""
    window_hi = min(30.0, scale.duration / 5.0)
    merged = dict(
        n_nodes=scale.n_nodes,
        field_size=scale.field,
        duration=scale.duration,
        n_connections=scale.source_counts[0],
        traffic_start_window=(0.0, window_hi),
        max_speed=20.0,
        pause_time=0.0,
        rate=4.0,
        packet_size=64,
        seed=42,
    )
    merged.update(overrides)
    return ScenarioConfig(**merged)


def pause_values(scale: Scale) -> Sequence[float]:
    return scale.pause_values


def run_figure_sweep(
    scale: Scale,
    param: str,
    values: Sequence,
    protocols: Sequence[str] = PROTOCOL_SET,
    **config_overrides,
) -> SweepResult:
    """Run one figure's sweep at the given scale."""
    base = base_config(scale, **config_overrides)
    return run_sweep(
        base,
        param,
        list(values),
        list(protocols),
        replications=scale.replications,
        processes=None,
    )


def results_dir() -> Path:
    """Directory where benches write their regenerated figures."""
    d = Path(os.environ.get("MANETSIM_RESULTS", "benchmarks/results"))
    d.mkdir(parents=True, exist_ok=True)
    return d


def save_result(exp_id: str, text: str) -> Path:
    """Persist one figure's rendered output; also echo it to stdout."""
    path = results_dir() / f"{exp_id}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
    return path


def series_with_ci(
    result: SweepResult, metric: str
) -> Tuple[Dict[str, List[float]], Dict[str, List[float]]]:
    """Split sweep estimates into (means, half-widths) per protocol."""
    means: Dict[str, List[float]] = {}
    cis: Dict[str, List[float]] = {}
    for proto in result.protocols:
        ests: List[PointEstimate] = [
            result.estimate(proto, x, metric) for x in result.xs
        ]
        means[proto] = [e.mean for e in ests]
        cis[proto] = [e.half_width for e in ests]
    return means, cis
