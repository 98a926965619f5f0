"""Declarative fault plans: deterministic failure as a scenario input.

A :class:`FaultPlanConfig` describes *what goes wrong* in a run — node
churn, energy-depletion death, link impairment, queue overload — as a
frozen dataclass of primitives, exactly like
:class:`~repro.scenario.config.ScenarioConfig` itself. All randomness
(crash times, downtimes, per-frame link loss) is drawn from named RNG
streams of the scenario's root seed (``faults.*``), so a seeded fault
plan is bit-reproducible across runs and across worker processes, and a
config's cache key pins its faulted output exactly.

With ``faults=None`` (the default) no fault machinery is constructed at
all: the simulation takes the identical code path it took before this
subsystem existed, which the determinism tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

from ..core.errors import ConfigurationError
from ..core.schema import check_finite, from_json

__all__ = ["FaultPlanConfig"]


def _check_windows(name: str, windows: Tuple[Tuple[float, ...], ...], width: int) -> None:
    for w in windows:
        if len(w) != width:
            raise ConfigurationError(
                f"{name} entries must have {width} elements, got {w!r}"
            )
        start, stop = w[0], w[1]
        if not 0.0 <= start < stop:
            raise ConfigurationError(
                f"{name} window must satisfy 0 <= start < stop, got {w!r}"
            )


@dataclass(frozen=True)
class FaultPlanConfig:
    """Everything that deterministically goes wrong in one simulation.

    Every axis defaults to "off"; an all-default plan is a no-op (but
    still constructs the :class:`~repro.faults.manager.FaultManager`,
    unlike ``faults=None`` which bypasses the subsystem entirely).
    """

    # --- node churn (crash/recover) -----------------------------------
    #: Expected crashes per node per second (exponential inter-arrival);
    #: 0 disables churn.
    churn_rate: float = 0.0
    #: Mean crash duration in seconds (exponential).
    mean_downtime: float = 30.0
    #: No churn crash is scheduled before this time.
    churn_start: float = 0.0
    #: No churn crash is scheduled at/after this time (None = run end).
    churn_stop: Optional[float] = None

    # --- energy-depletion death ----------------------------------------
    #: Per-node energy budget in joules; a node whose cumulative radio
    #: energy (tx/rx/idle draw, see repro.stats.energy) exceeds this
    #: dies permanently. 0 disables.
    energy_budget_j: float = 0.0
    #: How often (s) budgets are checked against the airtime counters.
    energy_check_interval: float = 1.0

    # --- link impairment -------------------------------------------------
    #: Probability each fanned-out frame arrival is independently lost.
    link_loss: float = 0.0
    #: Radio-silence windows ``(start, stop)``: no transmission reaches
    #: any receiver while one is active.
    blackouts: Tuple[Tuple[float, float], ...] = ()
    #: Partition windows ``(start, stop, x_split)``: links crossing the
    #: vertical line ``x = x_split`` are cut while the window is active.
    partitions: Tuple[Tuple[float, float, float], ...] = ()

    # --- queue overload --------------------------------------------------
    #: Windows ``(start, stop)`` during which every node's interface
    #: queue capacity is clamped to ``overload_capacity``.
    overload_windows: Tuple[Tuple[float, float], ...] = ()
    overload_capacity: int = 2

    def __post_init__(self) -> None:
        check_finite(self)
        if self.churn_rate < 0:
            raise ConfigurationError(f"churn_rate must be >= 0, got {self.churn_rate}")
        if self.mean_downtime <= 0:
            raise ConfigurationError(
                f"mean_downtime must be > 0, got {self.mean_downtime}"
            )
        if self.churn_start < 0:
            raise ConfigurationError(
                f"churn_start must be >= 0, got {self.churn_start}"
            )
        if self.churn_stop is not None and self.churn_stop <= self.churn_start:
            raise ConfigurationError("churn_stop must be > churn_start")
        if self.energy_budget_j < 0:
            raise ConfigurationError(
                f"energy_budget_j must be >= 0, got {self.energy_budget_j}"
            )
        if self.energy_check_interval <= 0:
            raise ConfigurationError(
                f"energy_check_interval must be > 0, got {self.energy_check_interval}"
            )
        if not 0.0 <= self.link_loss <= 1.0:
            raise ConfigurationError(
                f"link_loss must be in [0, 1], got {self.link_loss}"
            )
        _check_windows("blackouts", self.blackouts, 2)
        _check_windows("partitions", self.partitions, 3)
        _check_windows("overload_windows", self.overload_windows, 2)
        if self.overload_capacity < 1:
            raise ConfigurationError(
                f"overload_capacity must be >= 1, got {self.overload_capacity}"
            )

    # ---------------------------------------------------------------- utils

    @property
    def any_enabled(self) -> bool:
        """Whether any fault axis is actually switched on."""
        return bool(
            self.churn_rate > 0.0
            or self.energy_budget_j > 0.0
            or self.link_loss > 0.0
            or self.blackouts
            or self.partitions
            or self.overload_windows
        )

    def with_(self, **changes) -> "FaultPlanConfig":
        """A modified copy (frozen-dataclass convenience)."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-ready dict (tuples become lists)."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = [list(w) if isinstance(w, tuple) else w for w in value]
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlanConfig":
        """Rebuild a plan; unknown keys and wrong types raise."""
        return from_json(cls, data, "fault plan")
