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
        #: ``candidates`` results keyed by touched cell block; dropped
        #: whenever a bucket changes.
        self._blocks: Dict[Tuple[int, int, int, int], np.ndarray] = {}

    def _key(self, x: float, y: float) -> Tuple[int, int]:
        c = self.cell_size
        return (math.floor(x / c), math.floor(y / c))

    def rebuild(self, positions: np.ndarray) -> None:
        """Re-bin every point; *positions* is an ``(N, 2)`` array."""
        self._cells.clear()
        self._blocks.clear()
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
        if changed.size:
            self._blocks.clear()
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

    def _block(self, x: float, y: float, radius: float):
        """The cell range ``(kx0, kx1, ky0, ky1)`` a *radius* query
        around ``(x, y)`` touches."""
        if self._positions is None:
            raise ConfigurationError("query before rebuild()")
        if radius < 0:
            raise ConfigurationError(f"radius must be >= 0, got {radius}")
        c = self.cell_size
        return (
            math.floor((x - radius) / c),
            math.floor((x + radius) / c),
            math.floor((y - radius) / c),
            math.floor((y + radius) / c),
        )

    def _walk(self, block) -> List[int]:
        """Ids in *block*, in bucket order: cells in ``(kx, ky)`` order,
        each bucket in its own order. That order feeds the channel's
        ``(time, seq)`` tie-breaks and so is part of the contract."""
        kx0, kx1, ky0, ky1 = block
        ids: List[int] = []
        cells = self._cells
        for kx in range(kx0, kx1 + 1):
            for ky in range(ky0, ky1 + 1):
                bucket = cells.get((kx, ky))
                if bucket:
                    ids += bucket
        return ids

    def candidates(self, x: float, y: float, radius: float) -> np.ndarray:
        """Ids in the cells a *radius* query around ``(x, y)`` touches.

        An ``intp`` array in bucket order, unverified against the
        radius. It is cached per touched cell block (3 x 3 when
        *radius* is the cell size) until a point changes cell; callers
        must not mutate it.
        """
        block = self._block(x, y, radius)
        hit = self._blocks.get(block)
        if hit is None:
            hit = self._blocks[block] = np.array(self._walk(block), dtype=np.intp)
        return hit

    def query_radius(self, x: float, y: float, radius: float) -> List[int]:
        """Indices of points within *radius* of ``(x, y)``, in bucket order.

        Exact (not candidate) result: the touched buckets are walked
        afresh and distances verified against the stored positions in
        one array pass. Nothing in ``src/`` calls it: it is the
        reference the ``candidates`` block cache is tested against, so
        it must never be answered from that cache.
        """
        idx = np.array(self._walk(self._block(x, y, radius)), dtype=np.intp)
        near = self._positions[idx]
        dx = near[:, 0] - x
        dy = near[:, 1] - y
        return idx[dx * dx + dy * dy <= radius * radius].tolist()
