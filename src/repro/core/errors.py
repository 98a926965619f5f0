"""Exception hierarchy for the manetsim simulation kernel.

All library errors derive from :class:`SimulationError` so callers can
catch everything the simulator may raise with a single ``except`` clause
while still distinguishing configuration mistakes from runtime faults.
"""

from __future__ import annotations

__all__ = [
    "SimulationError",
    "ConfigurationError",
    "SchedulingError",
    "ProtocolError",
    "PacketError",
    "FaultInjectionError",
    "FabricError",
]


class SimulationError(Exception):
    """Base class for every error raised by the manetsim library."""


class ConfigurationError(SimulationError):
    """A scenario or component was configured with invalid parameters."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or the queue was misused."""


class ProtocolError(SimulationError):
    """A routing/MAC protocol reached an inconsistent internal state."""


class PacketError(SimulationError):
    """A packet was malformed or used incorrectly (e.g. missing header)."""


class FaultInjectionError(SimulationError):
    """The fault-injection subsystem was misused or hit an impossible state."""


class FabricError(SimulationError):
    """The distributed sweep fabric (broker/worker/client) failed.

    Subclasses in :mod:`repro.fabric.protocol` distinguish an
    unreachable broker from a connection lost mid-sweep from a peer
    speaking garbage; the executor maps all of them onto graceful
    local-pool fallback rather than a failed sweep.
    """
