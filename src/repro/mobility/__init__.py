"""Mobility models: analytic piecewise-linear node trajectories."""

from .base import Field, Leg, LegBasedModel, MobilityModel
from .manager import MobilityManager
from .manhattan import ManhattanGrid
from .rpgm import GroupCenter, GroupMember, make_groups
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
    "ManhattanGrid",
    "GroupCenter",
    "GroupMember",
    "make_groups",
    "StaticPosition",
    "grid_placement",
    "line_placement",
    "uniform_placement",
    "RandomWaypoint",
]
