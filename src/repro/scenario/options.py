"""Run switches that are not part of the scenario: resolved once, here.

A :class:`~repro.scenario.config.ScenarioConfig` says *what* is
simulated, and the engine that runs it is a function of that config
alone (see :func:`~repro.scenario.build.build_scenario`).
:class:`EngineOptions` holds the few switches that say how a run is
observed without changing its results. The two ``MANETSIM_*``
variables below are read in this module and nowhere else; everything
downstream takes the resolved object as an argument.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Mapping, Optional

from ..core.errors import ConfigurationError

__all__ = ["EngineOptions", "env_number"]


def env_number(
    environ: Mapping[str, str], name: str, default, parse=int, minimum=None
):
    """``parse(environ[name])``; *default* when unset or empty.

    A value *parse* rejects, a NaN or infinity, or one below *minimum*,
    is a :class:`ConfigurationError` naming the variable and the value,
    never a bare ``ValueError``.
    """
    raw = environ.get(name, "")
    if raw == "":
        return default
    try:
        value = parse(raw)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be {parse.__name__}-valued, got {raw!r}"
        ) from None
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {raw!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {raw!r}")
    return value


@dataclass(frozen=True)
class EngineOptions:
    """How to observe a run (never what it computes)."""

    #: ``MANETSIM_FLIGHT=1``: attach the packet flight recorder to
    #: every run, as ``ScenarioConfig(flight=True)`` does for one.
    flight: bool = False
    #: ``MANETSIM_TRACE_SAMPLE=N``: keep one origin uid in N in a
    #: ``flight_trace`` event trace.
    trace_sample: int = 1

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> "EngineOptions":
        """Resolve the options from *environ* (default ``os.environ``)."""
        if environ is None:
            environ = os.environ
        return cls(
            flight=environ.get("MANETSIM_FLIGHT") == "1",
            trace_sample=env_number(
                environ, "MANETSIM_TRACE_SAMPLE", 1, minimum=1
            ),
        )
