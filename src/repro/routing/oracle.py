"""Oracle routing: global-knowledge shortest paths.

The oracle peeks at true node positions (no control traffic at all) and
forwards along the current shortest hop path. It is the route-optimality
reference for the analysis layer (the paper lineage compares protocol
path lengths against the shortest possible) and an upper-bound baseline
in tests.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

import numpy as np

from ..net.packet import Packet
from .base import RoutingProtocol

__all__ = ["OracleRouting", "shortest_hop_path"]


def shortest_hop_path(
    positions: np.ndarray, src: int, dst: int, radio_range: float
) -> Optional[List[int]]:
    """Min-hop path from *src* to *dst* over the unit-disk graph.

    Dijkstra/BFS over links shorter than *radio_range*; returns the node
    sequence (inclusive) or ``None`` when partitioned. Ties broken by
    total Euclidean length so paths are deterministic and short.
    """
    n = len(positions)
    if src == dst:
        return [src]
    dx = positions[:, 0][:, None] - positions[:, 0][None, :]
    dy = positions[:, 1][:, None] - positions[:, 1][None, :]
    dist = np.hypot(dx, dy)
    adj = dist <= radio_range
    # (hops, length) lexicographic Dijkstra.
    best: Dict[int, tuple] = {src: (0, 0.0)}
    prev: Dict[int, int] = {}
    heap = [(0, 0.0, src)]
    while heap:
        hops, length, u = heapq.heappop(heap)
        if u == dst:
            break
        if (hops, length) > best.get(u, (n + 1, float("inf"))):
            continue
        for v in np.nonzero(adj[u])[0]:
            v = int(v)
            if v == u:
                continue
            cand = (hops + 1, length + float(dist[u, v]))
            if cand < best.get(v, (n + 1, float("inf"))):
                best[v] = cand
                prev[v] = u
                heapq.heappush(heap, (cand[0], cand[1], v))
    if dst not in best:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    path.reverse()
    return path


class OracleRouting(RoutingProtocol):
    """Forward along the true current shortest path, zero overhead.

    Parameters
    ----------
    mobility:
        The scenario's :class:`MobilityManager` (global knowledge).
    radio_range:
        Link threshold distance (m), normally the radio's RX range.
    """

    NAME = "oracle"

    def __init__(self, sim, node_id, mac, rng, mobility=None, radio_range=250.0):
        super().__init__(sim, node_id, mac, rng)
        self.mobility = mobility
        self.radio_range = radio_range

    def _next_hop(self, dst: int) -> Optional[int]:
        positions = self.mobility.positions(self.sim.now)
        path = shortest_hop_path(positions, self.addr, dst, self.radio_range)
        if path is None or len(path) < 2:
            return None
        return path[1]

    def originate(self, packet: Packet) -> None:
        nh = self._next_hop(packet.dst)
        if nh is None:
            self.drop_no_route(packet)
            return
        self.send_data(packet, nh, forwarded=False)

    def on_data_to_forward(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        nh = self._next_hop(packet.dst)
        if nh is None:
            self.drop_no_route(packet)
            return
        self.send_data(packet, nh, forwarded=True)

    def on_control(self, packet, prev_hop, rx_power):  # pragma: no cover
        pass  # the oracle emits no control traffic
