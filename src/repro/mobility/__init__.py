"""Mobility models: analytic piecewise-linear node trajectories."""

from .base import Field, Leg, LegBasedModel, MobilityModel
from .manager import MobilityManager
from .static import (
    StaticPosition,
    grid_placement,
    line_placement,
    uniform_placement,
)
from .waypoint import RandomWaypoint

__all__ = [
    "Field",
    "Leg",
    "LegBasedModel",
    "MobilityModel",
    "MobilityManager",
    "StaticPosition",
    "grid_placement",
    "line_placement",
    "uniform_placement",
    "RandomWaypoint",
]
