"""Uniform-grid spatial index for radius queries over node positions.

The channel needs "all nodes within the carrier-sense range of the
sender" once per transmission. For the paper's 50-node scenarios a
brute-force vectorized distance computation is fastest; the grid wins
when node counts grow into the several hundreds (the density-sweep
experiment), so the channel switches on size.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

from ..core.errors import ConfigurationError

__all__ = ["SpatialIndex"]


class SpatialIndex:
    """Uniform hash grid over 2-D points.

    Parameters
    ----------
    cell_size:
        Edge length of a grid cell; choose ~= the query radius so a
        radius query touches at most 9 cells.
    """

    def __init__(self, cell_size: float):
        if cell_size <= 0:
            raise ConfigurationError(f"cell size must be > 0, got {cell_size}")
        self.cell_size = cell_size
        self._cells: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        self._positions: np.ndarray | None = None
        self._keys_x: np.ndarray | None = None
        self._keys_y: np.ndarray | None = None

    def _key(self, x: float, y: float) -> Tuple[int, int]:
        c = self.cell_size
        return (math.floor(x / c), math.floor(y / c))

    def rebuild(self, positions: np.ndarray) -> None:
        """Re-bin every point; *positions* is an ``(N, 2)`` array."""
        self._cells.clear()
        self._positions = positions
        c = self.cell_size
        keys_x = np.floor(positions[:, 0] / c).astype(np.int64)
        keys_y = np.floor(positions[:, 1] / c).astype(np.int64)
        self._keys_x = keys_x
        self._keys_y = keys_y
        cells = self._cells
        for i in range(len(positions)):
            cells[(int(keys_x[i]), int(keys_y[i]))].append(i)

    def update(self, positions: np.ndarray) -> int:
        """Re-bin only points whose grid cell changed since the last
        ``rebuild``/``update``; returns how many points moved cells.

        Between waypoint events nodes drift by meters while cells are
        hundreds of meters wide, so almost every update is a vectorized
        key comparison and nothing else. Falls back to a full rebuild
        when the point count changes.
        """
        if self._keys_x is None or len(positions) != len(self._keys_x):
            self.rebuild(positions)
            return len(positions)
        c = self.cell_size
        keys_x = np.floor(positions[:, 0] / c).astype(np.int64)
        keys_y = np.floor(positions[:, 1] / c).astype(np.int64)
        changed = np.nonzero((keys_x != self._keys_x) | (keys_y != self._keys_y))[0]
        cells = self._cells
        old_x, old_y = self._keys_x, self._keys_y
        for i in changed.tolist():
            old_key = (int(old_x[i]), int(old_y[i]))
            bucket = cells.get(old_key)
            if bucket is not None:
                bucket.remove(i)
                if not bucket:
                    del cells[old_key]
            cells[(int(keys_x[i]), int(keys_y[i]))].append(i)
        self._keys_x = keys_x
        self._keys_y = keys_y
        self._positions = positions
        return int(changed.size)

    def query_radius(self, x: float, y: float, radius: float) -> List[int]:
        """Indices of points within *radius* of ``(x, y)``.

        Exact (not candidate) result: distances are verified against the
        stored positions.
        """
        if self._positions is None:
            raise ConfigurationError("query before rebuild()")
        if radius < 0:
            raise ConfigurationError(f"radius must be >= 0, got {radius}")
        c = self.cell_size
        kx0 = math.floor((x - radius) / c)
        kx1 = math.floor((x + radius) / c)
        ky0 = math.floor((y - radius) / c)
        ky1 = math.floor((y + radius) / c)
        # Gather candidates bucket by bucket, then verify them in one
        # array pass. Mask selection keeps bucket order, which feeds the
        # channel's (time, seq) tie-breaks and so is part of the contract.
        candidates: List[int] = []
        cells = self._cells
        for kx in range(kx0, kx1 + 1):
            for ky in range(ky0, ky1 + 1):
                bucket = cells.get((kx, ky))
                if bucket:
                    candidates += bucket
        if not candidates:
            return candidates
        idx = np.array(candidates, dtype=np.intp)
        near = self._positions[idx]
        dx = near[:, 0] - x
        dy = near[:, 1] - y
        return idx[dx * dx + dy * dy <= radius * radius].tolist()
