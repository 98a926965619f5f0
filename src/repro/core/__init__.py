"""Simulation kernel: events, clock, RNG streams, units."""

from .errors import (
    ConfigurationError,
    FaultInjectionError,
    PacketError,
    ProtocolError,
    SchedulingError,
    SimulationError,
)
from .events import Event, EventQueue
from .rng import RngStreams
from .simulator import Simulator
from . import units

__all__ = [
    "ConfigurationError",
    "FaultInjectionError",
    "PacketError",
    "ProtocolError",
    "SchedulingError",
    "SimulationError",
    "Event",
    "EventQueue",
    "RngStreams",
    "Simulator",
    "units",
]
