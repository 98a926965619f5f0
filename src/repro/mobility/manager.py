"""Vectorized access to all node positions at a given time.

The channel asks "where is everyone?" once per transmission. The manager
answers from published *trajectory segments*: each model exposes its
current linear leg via :meth:`MobilityModel.segment`, and the manager
keeps those legs in flat NumPy arrays so ``positions(t)`` is one fused
``p0 + frac * dp`` expression instead of N Python calls. Only nodes
whose segment has expired (``t`` left the ``[t0, t1)`` window) pay a
Python-level refresh; between waypoints — i.e. for almost every
transmission — the whole fleet is evaluated in a handful of NumPy ops.

Bit-determinism: the batch expression evaluates exactly the same
floating-point operations, in the same order, as ``Leg.position`` —
``frac = (t - t0) / (t1 - t0)`` then ``x0 + frac * (x1 - x0)`` — so the
vectorized path is bit-identical to calling ``position(t)`` per node
(NumPy float64 elementwise ops follow IEEE-754 like Python floats;
there is no fused multiply-add). The segment window is half-open because at
``t == t1`` the interpolation ``x0 + 1.0 * (x1 - x0)`` is not bitwise
``x1`` in general; expired rows re-fetch the *next* leg instead.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from ..core.errors import ConfigurationError
from ..core.perfcounters import PerfCounters
from .base import MobilityModel

__all__ = ["MobilityManager"]


class MobilityManager:
    """Holds one :class:`MobilityModel` per node, indexed by node id.

    Parameters
    ----------
    models:
        One mobility model per node.
    perf:
        The simulator's counter block; a fresh one if not given.
    """

    def __init__(self, models: Sequence[MobilityModel],
                 perf: Optional[PerfCounters] = None):
        if not models:
            raise ConfigurationError("MobilityManager needs at least one model")
        self.models: List[MobilityModel] = list(models)
        self.perf = perf or PerfCounters()
        n = len(self.models)
        self._cache_t = -1.0
        self._cache = np.zeros((n, 2), dtype=np.float64)
        self._cache_valid = False
        # Published segments: row i is valid while seg_t0[i] <= t < seg_t1[i].
        self._seg_t0 = np.zeros(n, dtype=np.float64)
        self._seg_t1 = np.full(n, -math.inf, dtype=np.float64)  # all stale
        self._seg_dur = np.ones(n, dtype=np.float64)
        self._seg_p0 = np.zeros((n, 2), dtype=np.float64)
        self._seg_dp = np.zeros((n, 2), dtype=np.float64)
        self._frac = np.empty(n, dtype=np.float64)
        #: Time until which no position can change: the earliest
        #: ``seg_t1`` while every published segment is a pause
        #: (``dp == 0``), else -inf. Pinned rows publish ``seg_t1 = -inf``,
        #: so they read -inf here. Inside ``[snapshot time, static_until)``
        #: the fused expression is ``p0 + frac * 0 == p0`` for every row
        #: and every ``frac``, so ``positions`` returns its snapshot and
        #: the channel keeps fan-out memo entries built from it.
        self.static_until = -math.inf

    def __len__(self) -> int:
        return len(self.models)

    # ----------------------------------------------------------- evaluation

    def positions(self, t: float) -> np.ndarray:
        """``(N, 2)`` array of node positions at time *t*.

        The returned array is the internal cache — callers must not
        mutate it. It is re-evaluated for every new *t* except inside
        the :attr:`static_until` window, where it cannot have changed.
        """
        if self._cache_valid and (
            t == self._cache_t or self._cache_t < t < self.static_until
        ):
            return self._cache
        return self._positions_compute(t)

    def _positions_compute(self, t: float) -> np.ndarray:
        """Recompute the position snapshot for *t* (cache-miss path)."""
        buf = self._cache

        # Refresh rows whose published segment no longer covers t.
        t0 = self._seg_t0
        t1 = self._seg_t1
        stale = np.nonzero((t < t0) | (t >= t1))[0]
        if stale.size:
            self._refresh_segments(stale, t)
            t0 = self._seg_t0
            t1 = self._seg_t1

        # Fused kinematics: p = p0 + (t - t0)/dur * dp, the exact FP
        # expression Leg.position evaluates per node.
        frac = self._frac
        np.subtract(t, t0, out=frac)
        np.divide(frac, self._seg_dur, out=frac)
        np.multiply(self._seg_dp, frac[:, None], out=buf)
        np.add(buf, self._seg_p0, out=buf)

        self.perf.batch_position_evals += len(self.models)
        self._cache_t = t
        self._cache_valid = True
        return buf

    def _refresh_segments(self, stale: np.ndarray, t: float) -> None:
        """Re-publish the current leg for each row in *stale*."""
        models = self.models
        seg_t0 = self._seg_t0
        seg_t1 = self._seg_t1
        seg_dur = self._seg_dur
        seg_p0 = self._seg_p0
        seg_dp = self._seg_dp
        refreshed = 0
        for i in stale.tolist():
            s0, s1, x0, y0, x1, y1 = models[i].segment(t)
            refreshed += 1
            if s1 <= s0 or t >= s1 or t < s0:
                # Cases where Leg.position clamps instead of interpolating
                # (zero-duration placeholder legs, an exact t == t1
                # coincidence, or a pre-t0 query): pin the clamped value
                # for this query only and leave the row stale so the next
                # query re-fetches.
                px, py = (x1, y1) if (s0 < s1 <= t) else (x0, y0)
                seg_t0[i] = t
                seg_t1[i] = -math.inf
                seg_dur[i] = 1.0
                seg_p0[i, 0] = px
                seg_p0[i, 1] = py
                seg_dp[i, 0] = 0.0
                seg_dp[i, 1] = 0.0
                continue
            seg_t0[i] = s0
            seg_t1[i] = s1
            seg_dur[i] = s1 - s0
            seg_p0[i, 0] = x0
            seg_p0[i, 1] = y0
            seg_dp[i, 0] = x1 - x0
            seg_dp[i, 1] = y1 - y0
        self.static_until = (
            -math.inf if seg_dp.any() else float(seg_t1.min())
        )
        self.perf.segment_refreshes += refreshed

    # -------------------------------------------------------- scalar helpers

    def position(self, node_id: int, t: float):
        """Position of one node at time *t* as a ``(x, y)`` tuple."""
        return self.models[node_id].position(t)

    def distance(self, a: int, b: int, t: float) -> float:
        """Euclidean distance between nodes *a* and *b* at time *t*."""
        xa, ya = self.models[a].position(t)
        xb, yb = self.models[b].position(t)
        return float(np.hypot(xb - xa, yb - ya))

    def distances_from(self, node_id: int, t: float) -> np.ndarray:
        """Vector of distances from *node_id* to every node at time *t*."""
        pos = self.positions(t)
        delta = pos - pos[node_id]
        return np.hypot(delta[:, 0], delta[:, 1])

    def invalidate(self) -> None:
        """Drop the memoized snapshot and published segments.

        For tests that mutate models between queries at the same
        timestamp; every row is re-fetched on the next ``positions()``.
        """
        self._cache_valid = False
        self.static_until = -math.inf
        self._seg_t1.fill(-math.inf)
