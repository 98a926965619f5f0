"""Static node placements (no movement)."""

from __future__ import annotations

from typing import List, Tuple

from ..core.errors import ConfigurationError
from .base import Field, MobilityModel

__all__ = ["StaticPosition", "uniform_placement", "grid_placement", "line_placement"]


class StaticPosition(MobilityModel):
    """A node pinned at ``(x, y)`` forever."""

    def __init__(self, x: float, y: float):
        self.x = float(x)
        self.y = float(y)

    def position(self, t: float) -> Tuple[float, float]:
        return (self.x, self.y)

    def speed(self, t: float) -> float:
        return 0.0

    def segment(self, t: float) -> Tuple[float, float, float, float, float, float]:
        # One segment covers all time; with t1 = inf the batch evaluator's
        # frac = t/inf = 0.0 pins the node at (x, y) exactly.
        return (0.0, float("inf"), self.x, self.y, self.x, self.y)

    def __repr__(self) -> str:  # pragma: no cover
        return f"StaticPosition({self.x:.1f}, {self.y:.1f})"


def uniform_placement(field: Field, n: int, rng) -> List[StaticPosition]:
    """*n* static nodes placed uniformly at random over *field*."""
    if n < 0:
        raise ConfigurationError(f"node count must be >= 0, got {n}")
    return [StaticPosition(*field.random_point(rng)) for _ in range(n)]


def grid_placement(field: Field, n: int) -> List[StaticPosition]:
    """*n* static nodes on a near-square grid covering *field*.

    Useful for deterministic topology tests: node spacing is uniform and
    predictable.
    """
    if n <= 0:
        raise ConfigurationError(f"node count must be > 0, got {n}")
    import math

    cols = int(math.ceil(math.sqrt(n * field.width / field.height)))
    cols = max(cols, 1)
    rows = int(math.ceil(n / cols))
    dx = field.width / (cols + 1)
    dy = field.height / (rows + 1)
    out: List[StaticPosition] = []
    for i in range(n):
        r, c = divmod(i, cols)
        out.append(StaticPosition(dx * (c + 1), dy * (r + 1)))
    return out


def line_placement(spacing: float, n: int, y: float = 0.0) -> List[StaticPosition]:
    """*n* static nodes on a horizontal line, *spacing* meters apart.

    The canonical chain topology for multi-hop protocol tests: with
    spacing just under the radio range, node *i* only hears *i±1*.
    """
    if n <= 0:
        raise ConfigurationError(f"node count must be > 0, got {n}")
    if spacing <= 0:
        raise ConfigurationError(f"spacing must be > 0, got {spacing}")
    return [StaticPosition(i * spacing, y) for i in range(n)]
