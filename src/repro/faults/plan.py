"""Declarative fault plans: deterministic failure as a scenario input.

A :class:`FaultPlanConfig` describes *what goes wrong* in a run — node
churn and link impairment — as a frozen dataclass of primitives,
exactly like :class:`~repro.scenario.config.ScenarioConfig` itself. All randomness
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
from typing import Tuple

from ..core.errors import ConfigurationError
from ..core.schema import check_finite, from_json

__all__ = ["FaultPlanConfig"]


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

    # --- link impairment -------------------------------------------------
    #: Probability each fanned-out frame arrival is independently lost.
    link_loss: float = 0.0
    #: Partition windows ``(start, stop, x_split)``: links crossing the
    #: vertical line ``x = x_split`` are cut while the window is active.
    partitions: Tuple[Tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        check_finite(self)
        if self.churn_rate < 0:
            raise ConfigurationError(f"churn_rate must be >= 0, got {self.churn_rate}")
        if self.mean_downtime <= 0:
            raise ConfigurationError(
                f"mean_downtime must be > 0, got {self.mean_downtime}"
            )
        if not 0.0 <= self.link_loss <= 1.0:
            raise ConfigurationError(
                f"link_loss must be in [0, 1], got {self.link_loss}"
            )
        for w in self.partitions:
            if len(w) != 3:
                raise ConfigurationError(
                    f"partitions entries must have 3 elements, got {w!r}"
                )
            if not 0.0 <= w[0] < w[1]:
                raise ConfigurationError(
                    f"partitions window must satisfy 0 <= start < stop, got {w!r}"
                )

    # ---------------------------------------------------------------- utils

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
