"""Mobility model interface and the rectangular simulation field.

Models are *analytic*: a node's trajectory is a piecewise-linear function
of time built from "legs" (straight-line moves and pauses), and
``position(t)`` evaluates it directly. No per-tick movement events are
ever scheduled — the kernel only sees events when something else (a
transmission) asks where nodes are. This is the main performance idiom
that keeps a pure-Python MANET simulation tractable.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Tuple

from ..core.errors import ConfigurationError

__all__ = ["Field", "Leg", "MobilityModel", "LegBasedModel"]


@dataclass(frozen=True)
class Field:
    """Rectangular simulation area ``[0, width] x [0, height]`` in meters."""

    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ConfigurationError(
                f"field dimensions must be positive, got {self.width}x{self.height}"
            )

    def contains(self, x: float, y: float, tol: float = 1e-9) -> bool:
        """Whether point ``(x, y)`` lies inside the field (with tolerance)."""
        return -tol <= x <= self.width + tol and -tol <= y <= self.height + tol

    def random_point(self, rng) -> Tuple[float, float]:
        """A point uniformly distributed over the field."""
        return (rng.uniform(0.0, self.width), rng.uniform(0.0, self.height))

    @property
    def diagonal(self) -> float:
        """Length of the field diagonal (an upper bound on any distance)."""
        return math.hypot(self.width, self.height)


@dataclass(frozen=True)
class Leg:
    """One piecewise-linear trajectory segment.

    From ``(x0, y0)`` at ``t0`` to ``(x1, y1)`` at ``t1``; a pause is a
    leg with identical endpoints. ``t1`` may equal ``t0`` only for
    zero-length placeholder legs.
    """

    t0: float
    t1: float
    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def speed(self) -> float:
        """Constant speed over the leg (0 for pauses)."""
        if self.t1 <= self.t0:
            return 0.0
        return math.hypot(self.x1 - self.x0, self.y1 - self.y0) / (self.t1 - self.t0)

    def position(self, t: float) -> Tuple[float, float]:
        """Position at time *t*, clamped to the leg's time span."""
        if t <= self.t0 or self.t1 <= self.t0:
            return (self.x0, self.y0)
        if t >= self.t1:
            return (self.x1, self.y1)
        frac = (t - self.t0) / (self.t1 - self.t0)
        return (
            self.x0 + frac * (self.x1 - self.x0),
            self.y0 + frac * (self.y1 - self.y0),
        )


class MobilityModel:
    """Abstract trajectory of one node."""

    def position(self, t: float) -> Tuple[float, float]:
        """``(x, y)`` position at simulation time *t* (seconds)."""
        raise NotImplementedError

    def speed(self, t: float) -> float:
        """Instantaneous speed at time *t* (m/s)."""
        raise NotImplementedError

    def segment(self, t: float) -> Tuple[float, float, float, float, float, float]:
        """Current linear trajectory segment.

        Returns ``(t0, t1, x0, y0, x1, y1)`` such that for every
        ``t0 <= s < t1`` the node's position is exactly
        ``(x0 + (s-t0)/(t1-t0) * (x1-x0), ...)`` — i.e. the same
        floating-point expression :meth:`Leg.position` evaluates. The
        :class:`~repro.mobility.manager.MobilityManager` publishes these
        segments into NumPy arrays so ``positions(t)`` is one fused
        expression instead of N Python calls; every model is
        piecewise-linear, so every model implements this.
        """
        raise NotImplementedError


class LegBasedModel(MobilityModel):
    """Base for models that lazily extend a list of :class:`Leg` segments.

    Subclasses implement :meth:`_next_leg` which appends exactly one leg
    continuing from the end of the previous one. Position queries extend
    the leg list as far as needed, then binary-search it, so arbitrary
    (even non-monotone) time queries are supported.
    """

    def __init__(self, x0: float, y0: float):
        self._legs: List[Leg] = [Leg(0.0, 0.0, x0, y0, x0, y0)]
        self._starts: List[float] = [0.0]

    # -- subclass hook ----------------------------------------------------

    def _next_leg(self, prev: Leg) -> Leg:
        """Produce the leg that starts where (and when) *prev* ends."""
        raise NotImplementedError

    # -- shared machinery --------------------------------------------------

    def _extend_to(self, t: float) -> None:
        legs = self._legs
        guard = 0
        while legs[-1].t1 < t:
            nxt = self._next_leg(legs[-1])
            if nxt.t0 != legs[-1].t1:
                raise ConfigurationError("legs must be contiguous in time")
            if nxt.t1 < nxt.t0:
                raise ConfigurationError("leg ends before it starts")
            # Zero-duration legs would loop forever.
            guard = guard + 1 if nxt.duration == 0.0 else 0
            if guard > 8:
                raise ConfigurationError(
                    f"{type(self).__name__} produced 8 zero-duration legs in a row"
                )
            legs.append(nxt)
            self._starts.append(nxt.t0)

    def _leg_at(self, t: float) -> Leg:
        if t < 0:
            t = 0.0
        self._extend_to(t)
        idx = bisect.bisect_right(self._starts, t) - 1
        return self._legs[idx]

    def position(self, t: float) -> Tuple[float, float]:
        return self._leg_at(t).position(t)

    def speed(self, t: float) -> float:
        return self._leg_at(t).speed

    def segment(self, t: float) -> Tuple[float, float, float, float, float, float]:
        leg = self._leg_at(t)
        return (leg.t0, leg.t1, leg.x0, leg.y0, leg.x1, leg.y1)
