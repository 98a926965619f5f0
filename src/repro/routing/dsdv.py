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

The table is three NumPy columns indexed by destination id, allocated
once at the size of the network's id space (layout, key encoding,
sentinels and the own-row rule are in DESIGN.md, "DSDV table layout").
The adoption rule is a lexicographic order on (sequence, −metric), so
each row holds it as one packed int64 key and "newer sequence, or
equal sequence and shorter metric" is one integer ``>``. An advert
names each destination once, so merging it is independent per
destination and runs as one gather, one comparison and one scatter per
column. The per-entry statement of the same rules lives in
``tests/routing/dsdv_reference.py`` and is compared step by step.
"""

from __future__ import annotations

import math
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import ConfigurationError, ProtocolError
from ..net.packet import BROADCAST, Packet
from .base import RoutingProtocol

__all__ = ["Dsdv", "DsdvRoute"]

INFINITY = math.inf

#: Bytes per advertised (destination, metric, sequence) triple.
ENTRY_SIZE = 12
#: Fixed update-message header bytes.
HEADER_SIZE = 8

#: Column dtypes: 11 bytes a row (int16 next hop, int64 key, bool).
NEXT_HOP_DTYPE = np.int16
KEY_DTYPE = np.int64
#: Largest id space a table can index: the int16 next hop's range. A
#: network of that many DSDV nodes would hold 32,767² rows, about 11.8 GB.
MAX_IDS = (1 << 15) - 1

#: A row key is ``seq << 32 | low`` with ``low = LOW - metric`` for a
#: finite metric and 0 for ∞, so integer order is DSDV's adoption order
#: (newer sequence, then shorter metric). -1 marks an unknown row.
LOW = (1 << 32) - 1
UNKNOWN = -1
#: Sequence numbers stay below 2³¹ (2³⁰ own adverts, each adding 2),
#: so every key is a non-negative int64.
MAX_SEQ = (1 << 31) - 1
#: A finite metric counts the hops one sequence number travelled along a
#: simple path (an equal sequence is adopted only with a shorter
#: metric), so it stays below the number of node ids (``MAX_IDS``). The
#: merge adds a hop unchecked; this bound keeps every such sum clear of
#: the low half's ∞ code.
MAX_METRIC = (1 << 31) - 1


def _encode(metric: float, seq: int) -> int:
    """The row key of (*metric*, *seq*); ProtocolError when out of range."""
    if not (0 <= seq <= MAX_SEQ and seq == int(seq)):
        raise ProtocolError(f"DSDV sequence number {seq!r} is not in [0, 2**31)")
    if metric == INFINITY:
        return int(seq) << 32
    if not (0 <= metric <= MAX_METRIC and metric == int(metric)):
        raise ProtocolError(f"DSDV metric {metric!r} is not a hop count or ∞")
    return int(seq) << 32 | (LOW - int(metric))


def _decode(key: int) -> Tuple[float, int]:
    """(metric, seq) of a known row's key."""
    low = key & LOW
    return (float(LOW - low) if low else INFINITY), key >> 32


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
    """Payload of a DSDV update packet: destinations and their keys.

    Built once by the sender and read by every receiver of the
    broadcast, so everything a receiver needs that depends only on the
    advert is computed here: ``key1`` is each entry's key with the
    metric already one hop longer (``key - 1`` on a finite entry, the
    key itself on an ∞ one), beside the mask of finite entries (``None``
    when all of them are).
    """

    __slots__ = ("dst", "key1", "finite")

    def __init__(self, entries: Sequence[Tuple[int, float, int]]):
        keys = [_encode(metric, seq) for _, metric, seq in entries]
        self._set(
            np.array([entry[0] for entry in entries], dtype=np.intp),
            np.array(keys, dtype=KEY_DTYPE),
        )

    @classmethod
    def from_rows(cls, rows: np.ndarray, keys: np.ndarray) -> "_Advert":
        """The advert of table *rows* and their keys."""
        advert = cls.__new__(cls)
        advert._set(rows, keys)
        return advert

    def _set(self, dst, keys) -> None:
        self.dst = dst
        finite = (keys & LOW) != 0
        if finite.all():
            self.key1 = keys - 1
            self.finite = None
        else:
            self.key1 = keys - finite
            self.finite = finite

    @property
    def seq(self) -> np.ndarray:
        """Advertised sequence numbers."""
        return self.key1 >> 32

    @property
    def metric(self) -> np.ndarray:
        """Advertised metrics (before the receiver's extra hop)."""
        metric = (LOW - 1 - (self.key1 & LOW)).astype(np.float64)
        if self.finite is not None:
            metric[~self.finite] = INFINITY
        return metric


class _TableView:
    """Mapping view of a :class:`Dsdv` agent's columns, minus its own row.

    For tests, not for the protocol: reads build a :class:`DsdvRoute`
    snapshot, item assignment writes the row.
    """

    __slots__ = ("_agent",)

    def __init__(self, agent: "Dsdv"):
        self._agent = agent

    def __contains__(self, dst: int) -> bool:
        agent = self._agent
        return dst != agent.addr and 0 <= dst < len(agent._key) and agent._key[dst] >= 0

    def __iter__(self) -> Iterator[int]:
        agent = self._agent
        return (d for d in np.flatnonzero(agent._key >= 0).tolist() if d != agent.addr)

    def __len__(self) -> int:
        return int(np.count_nonzero(self._agent._key >= 0)) - 1

    def __getitem__(self, dst: int) -> DsdvRoute:
        if dst not in self:
            raise KeyError(dst)
        agent = self._agent
        metric, seq = _decode(int(agent._key[dst]))
        return DsdvRoute(
            dst, int(agent._next_hop[dst]), metric, seq, bool(agent._changed[dst])
        )

    def get(self, dst: int, default=None) -> Optional[DsdvRoute]:
        return self[dst] if dst in self else default

    def values(self) -> List[DsdvRoute]:
        return [self[dst] for dst in self]

    def __setitem__(self, dst: int, route: DsdvRoute) -> None:
        agent = self._agent
        key = _encode(route.metric, route.seq)
        n_ids = len(agent._key)
        if not 0 <= dst < n_ids:
            raise ProtocolError(f"DSDV destination {dst!r} is not in [0, {n_ids})")
        agent._next_hop[dst] = route.next_hop
        agent._key[dst] = key
        agent._changed[dst] = route.changed


class Dsdv(RoutingProtocol):
    """DSDV routing agent.

    Parameters
    ----------
    n_ids:
        Size of the network's id space: every node id is below it, and
        the table holds one row per id.
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
        n_ids: int,
        update_interval: float = 15.0,
        trigger_delay: float = 1.0,
    ):
        if not node_id < n_ids <= MAX_IDS:
            raise ConfigurationError(
                f"DSDV id space {n_ids!r} must exceed node id {node_id} "
                f"and be at most {MAX_IDS}"
            )
        super().__init__(sim, node_id, mac, rng)
        self.update_interval = update_interval
        self.trigger_delay = trigger_delay
        #: Own even sequence number, bumped at every advertisement.
        self.seq = 0
        self._trigger_pending = False
        # Table columns indexed by destination id, one row per id and
        # never resized; ``key == UNKNOWN`` marks a destination never
        # heard of. The node's own row is an ordinary one (next hop
        # itself, metric 0, seq mirroring ``self.seq``, never flagged
        # changed at rest). ``empty`` + ``fill`` rather than
        # ``np.full``: a 1000-node build runs this a thousand times.
        self._next_hop = np.empty(n_ids, dtype=NEXT_HOP_DTYPE)
        self._next_hop.fill(-1)
        self._key = self._next_hop.astype(KEY_DTYPE)
        self._changed = np.zeros(n_ids, dtype=np.bool_)
        self._next_hop[node_id] = node_id
        self._key[node_id] = LOW  # seq 0, metric 0
        self.table = _TableView(self)

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
        key = self._key
        changed = self._changed
        key[self.addr] = self.seq << 32 | LOW
        if full:
            rows = np.flatnonzero(key >= 0)
            changed[:] = False
        else:
            if not changed.any() and self.sim.now > 0:
                # Nothing actually changed; suppress a pure self-advert
                # trigger (the periodic dump carries it).
                return
            changed[self.addr] = True
            rows = np.flatnonzero(changed)
            changed[rows] = False
        advert = _Advert.from_rows(rows, key[rows])
        size = HEADER_SIZE + ENTRY_SIZE * len(rows)
        self.send_control(self.make_control(advert, size), BROADCAST)

    # -------------------------------------------------------------- receive

    def on_control(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        advert: _Advert = packet.payload
        dst = advert.dst
        key = self._key
        new = advert.key1
        cur = key[dst]
        # Newer sequence wins; an equal one only with a shorter metric.
        adopt = new > cur
        if advert.finite is not None:
            # A destination never heard of is not learned from a break.
            adopt &= advert.finite | (cur >= 0)
        rows = dst[adopt]
        adopted = len(rows)
        if not adopted:
            return
        self._next_hop[rows] = prev_hop
        key[rows] = new[adopt]
        self._changed[rows] = True
        addr = self.addr
        if self._changed[addr]:
            # The adoption touched our own row: someone advertises a
            # sequence about us newer than our own. If it is an odd
            # (broken) one, answer with a fresh even one so the network
            # relearns the route quickly; either way the row is ours.
            heard = int(key[addr]) >> 32
            adopted -= 1
            if heard % 2 == 1 and heard > self.seq:
                self.seq = heard + 1
                adopted += 1
            self._next_hop[addr] = addr
            key[addr] = self.seq << 32 | LOW
            self._changed[addr] = False
        if adopted:
            self._schedule_trigger()

    # ------------------------------------------------------------ data path

    def _route(self, packet: Packet, forwarded: bool) -> None:
        dst = packet.dst
        key = self._key
        if 0 <= dst < len(key) and dst != self.addr:
            row = int(key[dst])
            # Valid: a known row (key >= 0) with a finite metric (low half).
            if row >= 0 and row & LOW:
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
        key = self._key
        broken = np.flatnonzero(
            (self._next_hop == next_hop) & (key >= 0) & (key & LOW != 0)
        )
        if len(broken):
            # Metric ∞ (low half 0) and the next, odd, sequence number:
            # flagged by the destination's owner rule.
            key[broken] = ((key[broken] >> 32) + 1) << 32
            self._changed[broken] = True
        # DSDV has no discovery to fall back on, so the failed packet
        # and every data packet queued for the dead neighbor are lost
        # here (the paper's headline failure mode).
        self.drop_stranded(packet, next_hop)
        if len(broken):
            self._schedule_trigger()
