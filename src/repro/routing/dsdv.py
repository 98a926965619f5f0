"""DSDV — Destination-Sequenced Distance Vector (Perkins & Bhagwat '94).

The proactive contender in the paper. Every node keeps a route to every
known destination and advertises its whole table periodically; each
destination stamps its advertisements with an even sequence number it
alone increments, and a route is replaced only by one with a newer
sequence number, or an equal sequence number and a shorter metric.
Broken links are advertised with metric ∞ and an *odd* sequence number
(the next odd after the route's last known even one) so the breakage
propagates until the destination's next genuine update overrides it.

Simplifications vs the full protocol, documented in DESIGN.md: the
weighted-settling-time damping of advertisements is replaced by plain
triggered incremental updates (changed routes are advertised after a
small jitter), and updates are not split across multiple NPDUs — an
update carries as many entries as needed.

Why DSDV collapses under mobility (the paper's headline): between a
link break and the arrival of the repaired route's next update, data
keeps flowing into the stale/invalidated route and is dropped — there
is no discovery to fall back on.

The table is four NumPy columns indexed by destination id (layout,
sentinels and the own-row rule are in DESIGN.md, "DSDV table layout"):
an advert names each destination once, so merging it is independent per
destination and runs as one gather, a few mask operations and one
scatter. The per-entry statement of the same rules lives in
``tests/routing/dsdv_reference.py`` and is compared step by step.
"""

from __future__ import annotations

import math
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.drops import DropReason
from ..net.packet import BROADCAST, Packet
from .base import RoutingProtocol

__all__ = ["Dsdv", "DsdvRoute"]

INFINITY = math.inf

#: Bytes per advertised (destination, metric, sequence) triple.
ENTRY_SIZE = 12
#: Fixed update-message header bytes.
HEADER_SIZE = 8

#: Column dtypes: 13 bytes a row. Hop counts and ∞ are exact in
#: float32, node ids fit int32, and an int32 sequence number allows
#: 2³⁰ own adverts (each adds 2) per destination.
NEXT_HOP_DTYPE = np.int32
METRIC_DTYPE = np.float32
SEQ_DTYPE = np.int32


class DsdvRoute(NamedTuple):
    """One routing-table row, as read or written through ``Dsdv.table``."""

    dst: int
    next_hop: int
    metric: float
    seq: int
    changed: bool = False

    @property
    def valid(self) -> bool:
        return self.metric < INFINITY


class _Advert:
    """Payload of a DSDV update packet: (dst, metric, seq) columns.

    Built once by the sender and read by every receiver of the
    broadcast, so everything a receiver needs that depends only on the
    advert (``metric + 1``, the highest destination id, whether any
    metric is infinite) is computed here.
    """

    __slots__ = ("dst", "metric", "seq", "metric1", "max_dst", "finite")

    def __init__(self, entries: Sequence[Tuple[int, float, int]]):
        dst, metric, seq = zip(*entries) if entries else ((), (), ())
        self._set(
            np.array(dst, dtype=np.intp),
            np.array(metric, dtype=METRIC_DTYPE),
            np.array(seq, dtype=SEQ_DTYPE),
        )

    @classmethod
    def from_columns(cls, dst, metric, seq) -> "_Advert":
        advert = cls.__new__(cls)
        advert._set(dst, metric, seq)
        return advert

    def _set(self, dst, metric, seq) -> None:
        self.dst = dst
        self.metric = metric
        self.seq = seq
        self.metric1 = metric + 1.0
        self.max_dst = int(dst.max()) if len(dst) else -1
        finite = metric < INFINITY
        #: Mask of finite-metric entries, or None when all of them are.
        self.finite = None if finite.all() else finite


class _TableView:
    """Mapping view of a :class:`Dsdv` agent's columns, minus its own row.

    For tests and telemetry, not for the protocol: reads build a
    :class:`DsdvRoute` snapshot, item assignment writes the row.
    """

    __slots__ = ("_agent",)

    def __init__(self, agent: "Dsdv"):
        self._agent = agent

    def __contains__(self, dst: int) -> bool:
        agent = self._agent
        return dst != agent.addr and 0 <= dst < len(agent._seq) and agent._seq[dst] >= 0

    def __iter__(self) -> Iterator[int]:
        agent = self._agent
        return (d for d in np.flatnonzero(agent._seq >= 0).tolist() if d != agent.addr)

    def __len__(self) -> int:
        return int(np.count_nonzero(self._agent._seq >= 0)) - 1

    def __getitem__(self, dst: int) -> DsdvRoute:
        if dst not in self:
            raise KeyError(dst)
        agent = self._agent
        return DsdvRoute(
            dst,
            int(agent._next_hop[dst]),
            float(agent._metric[dst]),
            int(agent._seq[dst]),
            bool(agent._changed[dst]),
        )

    def get(self, dst: int, default=None) -> Optional[DsdvRoute]:
        return self[dst] if dst in self else default

    def values(self) -> List[DsdvRoute]:
        return [self[dst] for dst in self]

    def __setitem__(self, dst: int, route: DsdvRoute) -> None:
        agent = self._agent
        if dst >= len(agent._seq):
            agent._grow(dst + 1)
        agent._next_hop[dst] = route.next_hop
        agent._metric[dst] = route.metric
        agent._seq[dst] = route.seq
        agent._changed[dst] = route.changed


class Dsdv(RoutingProtocol):
    """DSDV routing agent.

    Parameters
    ----------
    update_interval:
        Period of full-table dumps (ns-2 default 15 s).
    trigger_delay:
        Jitter bound before a triggered (incremental) update fires.
    """

    NAME = "dsdv"

    def __init__(
        self,
        sim,
        node_id,
        mac,
        rng,
        update_interval: float = 15.0,
        trigger_delay: float = 1.0,
    ):
        super().__init__(sim, node_id, mac, rng)
        self.update_interval = update_interval
        self.trigger_delay = trigger_delay
        #: Own even sequence number, bumped at every advertisement.
        self.seq = 0
        self._trigger_pending = False
        # Table columns indexed by destination id; ``seq == -1`` marks
        # a destination never heard of. The node's own row is an
        # ordinary one (next hop itself, metric 0, seq mirroring
        # ``self.seq``, never flagged changed at rest). ``empty`` +
        # ``fill`` rather than ``np.full``: a 1000-node build runs this
        # a thousand times.
        rows = node_id + 1
        self._next_hop = np.empty(rows, dtype=NEXT_HOP_DTYPE)
        self._next_hop.fill(-1)
        self._metric = np.empty(rows, dtype=METRIC_DTYPE)
        self._metric.fill(INFINITY)
        self._seq = self._next_hop.astype(SEQ_DTYPE)
        self._changed = np.zeros(rows, dtype=np.bool_)
        self._next_hop[node_id] = node_id
        self._metric[node_id] = 0.0
        self._seq[node_id] = 0
        self.table = _TableView(self)

    def _grow(self, need: int) -> None:
        """Extend the columns to at least *need* rows (geometric)."""
        old = len(self._seq)
        cap = max(need, 2 * old)
        for name, fill in (
            ("_next_hop", -1), ("_metric", INFINITY), ("_seq", -1), ("_changed", False),
        ):
            column = getattr(self, name)
            grown = np.full(cap, fill, dtype=column.dtype)
            grown[:old] = column
            setattr(self, name, grown)

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        # Desynchronize nodes' periodic dumps.
        delay = float(self.rng.uniform(0.0, self.update_interval))
        self.sim.schedule(delay, self._periodic_update)

    # ------------------------------------------------------------- updates

    def _periodic_update(self) -> None:
        self._broadcast_update(full=True)
        self.sim.schedule(self.update_interval, self._periodic_update)

    def _schedule_trigger(self) -> None:
        if self._trigger_pending:
            return
        self._trigger_pending = True
        delay = float(self.rng.uniform(0.0, self.trigger_delay))
        self.sim.schedule(delay, self._fire_trigger)

    def _fire_trigger(self) -> None:
        self._trigger_pending = False
        self._broadcast_update(full=False)

    def _broadcast_update(self, full: bool) -> None:
        self.seq += 2
        seq = self._seq
        changed = self._changed
        seq[self.addr] = self.seq
        if full:
            rows = np.flatnonzero(seq >= 0)
            changed[:] = False
        else:
            if not changed.any() and self.sim.now > 0:
                # Nothing actually changed; suppress a pure self-advert
                # trigger (the periodic dump carries it).
                return
            changed[self.addr] = True
            rows = np.flatnonzero(changed)
            changed[rows] = False
        advert = _Advert.from_columns(rows, self._metric[rows], seq[rows])
        size = HEADER_SIZE + ENTRY_SIZE * len(rows)
        self.send_control(self.make_control(advert, size), BROADCAST)

    # -------------------------------------------------------------- receive

    def on_control(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        advert: _Advert = packet.payload
        if advert.max_dst >= len(self._seq):
            self._grow(advert.max_dst + 1)
        dst = advert.dst
        new_seq = advert.seq
        new_metric = advert.metric1
        cur_seq = self._seq[dst]
        # Newer sequence wins; an equal one only with a shorter metric.
        adopt = new_seq > cur_seq
        adopt |= (new_seq == cur_seq) & (new_metric < self._metric[dst])
        if advert.finite is not None:
            # A destination never heard of is not learned from a break.
            adopt &= advert.finite | (cur_seq >= 0)
        rows = dst[adopt]
        adopted = len(rows)
        if not adopted:
            return
        self._next_hop[rows] = prev_hop
        self._metric[rows] = new_metric[adopt]
        self._seq[rows] = new_seq[adopt]
        self._changed[rows] = True
        addr = self.addr
        if self._changed[addr]:
            # The adoption touched our own row: someone advertises a
            # sequence about us newer than our own. If it is an odd
            # (broken) one, answer with a fresh even one so the network
            # relearns the route quickly; either way the row is ours.
            heard = int(self._seq[addr])
            adopted -= 1
            if heard % 2 == 1 and heard > self.seq:
                self.seq = heard + 1
                adopted += 1
            self._next_hop[addr] = addr
            self._metric[addr] = 0.0
            self._seq[addr] = self.seq
            self._changed[addr] = False
        if adopted:
            self._schedule_trigger()

    # ------------------------------------------------------------ data path

    def _route(self, packet: Packet, forwarded: bool) -> None:
        dst = packet.dst
        metric = self._metric
        if 0 <= dst < len(metric) and metric[dst] < INFINITY and dst != self.addr:
            self.send_data(packet, int(self._next_hop[dst]), forwarded=forwarded)
            return
        self.drop_no_route(packet)

    def originate(self, packet: Packet) -> None:
        self._route(packet, forwarded=False)

    def on_data_to_forward(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        self._route(packet, forwarded=True)

    # --------------------------------------------------------- link failure

    def link_failed(self, packet: Packet, next_hop: int) -> None:
        """Mark every route through *next_hop* broken (metric ∞, odd seq)."""
        broken = np.flatnonzero(
            (self._next_hop == next_hop) & (self._metric < INFINITY)
        )
        if len(broken):
            self._metric[broken] = INFINITY
            self._seq[broken] += 1  # odd: flagged by the destination's owner rule
            self._changed[broken] = True
        # Purge queued packets toward the dead neighbor: without a valid
        # route they would only burn retries. DSDV has no discovery to
        # fall back on, so the failed packet and every purged data
        # packet are lost here (the paper's headline failure mode).
        victims = [(packet, next_hop)] if packet is not None else []
        victims.extend(self.mac.purge_next_hop(next_hop))
        for pkt, _nh in victims:
            if pkt.is_data:
                self.stats.drops_link += 1
                if self._flight is not None:
                    self._flight.drop(pkt, DropReason.LINK_LOST, self.addr)
        if len(broken):
            self._schedule_trigger()
