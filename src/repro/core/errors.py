"""Exception hierarchy for the manetsim simulation kernel.

All library errors derive from :class:`SimulationError` so callers can
catch everything the simulator may raise with a single ``except`` clause
while still distinguishing configuration mistakes from runtime faults.
The two output-file guards live here too: every artifact writer checks
and writes through them, so an unwritable path is one
:class:`ConfigurationError` naming the file.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = [
    "SimulationError",
    "ConfigurationError",
    "SchedulingError",
    "ProtocolError",
    "PacketError",
    "FaultInjectionError",
    "FabricError",
    "check_output",
    "write_output",
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


def check_output(path) -> None:
    """Refuse *path* as an output file before any work is spent on it:
    :class:`ConfigurationError` unless its directory exists and takes
    writes and *path* itself is no directory."""
    out = Path(path)
    parent = out.parent
    if not parent.is_dir():
        raise ConfigurationError(f"{path}: cannot write: no directory {parent}")
    if out.is_dir():
        raise ConfigurationError(f"{path}: cannot write: is a directory")
    if not os.access(parent, os.W_OK):
        raise ConfigurationError(
            f"{path}: cannot write: directory {parent} is not writable"
        )


def write_output(path, text: str) -> None:
    """Write *text* to *path* as is; an OS error raises
    :class:`ConfigurationError` naming the file."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(
            f"{path}: cannot write: {exc.strerror or exc}"
        ) from None
