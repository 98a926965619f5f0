"""Scenario construction, execution, and parameter sweeps."""

from ..faults.plan import FaultPlanConfig
from .build import Scenario, build_scenario
from .config import MOBILITY_MODELS, PROTOCOLS, ScenarioConfig
from .executor import FailedRun, SweepExecutor, config_cache_key, default_executor
from .run import run_replications, run_scenario
from .sweep import SweepResult, run_sweep, sweep_configs

__all__ = [
    "Scenario",
    "build_scenario",
    "PROTOCOLS",
    "MOBILITY_MODELS",
    "ScenarioConfig",
    "FaultPlanConfig",
    "FailedRun",
    "SweepExecutor",
    "config_cache_key",
    "default_executor",
    "run_replications",
    "run_scenario",
    "SweepResult",
    "run_sweep",
    "sweep_configs",
]
