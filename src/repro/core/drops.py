"""The drop-reason taxonomy: why a packet (or frame) left the system.

Every place the stack can discard traffic is named here, once. The
reasons split into two classes:

* **Packet-terminal** reasons (:data:`TERMINAL`) — a *data packet* is
  gone for good: nothing downstream can deliver it. These are the
  categories that must conserve against offered load (``offered ==
  delivered + Σ terminal drops + in-flight``, the invariant
  ``repro obs why`` checks) and the keys that appear in
  ``MetricsSummary.drops_by_reason``.
* **Frame-level** reasons — a single MAC/PHY transmission attempt was
  lost (retry exhaustion, collision, capture, half duplex). The packet
  usually survives: the MAC retries, or the routing layer salvages.
  They are the verdicts causal traces note to show *why* a hop needed
  retries, and must never be counted against packet conservation.

The enum values are short stable strings (they appear in JSONL traces,
CSV columns, and reports), so renaming one is a schema change.

Every terminal drop goes through one :class:`DropLedger` call, which
counts it and tells the flight recorder. One ledger lives on each
:class:`~repro.core.simulator.Simulator` (``sim.drops``); a component
built on its own (a send buffer or interface queue in a test) makes a
fresh one. Frame-level reasons never reach a ledger: the MAC and the
fault filters count those in their own stats.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict

__all__ = ["DropLedger", "DropReason", "TERMINAL", "TERMINAL_VALUES"]


class DropReason(str, Enum):
    """Every way traffic can leave the simulator without arriving."""

    # ---- packet-terminal: the data packet is dead ----
    #: Routing had no route and no discovery mechanism left to try.
    NO_ROUTE = "no_route"
    #: The IP TTL reached zero while forwarding.
    TTL_EXPIRED = "ttl_expired"
    #: Send buffer overflowed; the oldest waiting packet was evicted.
    SEND_BUFFER_FULL = "send_buffer_full"
    #: Waited in the send buffer longer than its timeout.
    SEND_BUFFER_EXPIRED = "send_buffer_expired"
    #: Route discovery gave up (retries exhausted) and flushed the
    #: buffered packets for that destination.
    SEND_BUFFER_GIVEUP = "send_buffer_giveup"
    #: Interface queue full; the new packet was rejected (drop tail).
    IFQ_FULL = "ifq_full"
    #: Interface queue full; a queued data packet was evicted to admit
    #: a routing-control packet (ns-2 PriQueue behaviour).
    IFQ_EVICTED = "ifq_evicted"
    #: Link-layer failure (MAC retry exhaustion) and the routing layer
    #: could not salvage, repair, or re-buffer the packet.
    LINK_LOST = "link_lost"
    #: DSR salvage-count limit reached after a link failure.
    SALVAGE_LIMIT = "salvage_limit"
    #: The routing agent was crashed (``alive = False``) when asked to
    #: handle the packet.
    NODE_DOWN = "node_down"
    #: The node crashed and its queued interface traffic died with it.
    CRASH_QUEUE = "crash_queue"

    # ---- frame-level: one transmission attempt died, not the packet ----
    #: A unicast exhausted its MAC retries (the *routing* layer decides
    #: the packet's fate — see LINK_LOST/SALVAGE_LIMIT/NO_ROUTE).
    MAC_RETRY_LIMIT = "mac_retry_limit"
    #: Two arrivals corrupted each other at a receiver.
    PHY_COLLISION = "phy_collision"
    #: A weaker arrival was ignored while decoding a stronger one.
    PHY_CAPTURE = "phy_capture"
    #: Arrived while the receiver was transmitting (half duplex).
    PHY_HALF_DUPLEX = "phy_halfduplex"

    def __str__(self) -> str:  # "no_route", not "DropReason.NO_ROUTE"
        return self.value


#: The packet-terminal subset — the only reasons that may consume a
#: packet in the conservation ledger.
TERMINAL = frozenset(
    {
        DropReason.NO_ROUTE,
        DropReason.TTL_EXPIRED,
        DropReason.SEND_BUFFER_FULL,
        DropReason.SEND_BUFFER_EXPIRED,
        DropReason.SEND_BUFFER_GIVEUP,
        DropReason.IFQ_FULL,
        DropReason.IFQ_EVICTED,
        DropReason.LINK_LOST,
        DropReason.SALVAGE_LIMIT,
        DropReason.NODE_DOWN,
        DropReason.CRASH_QUEUE,
    }
)

#: String values of :data:`TERMINAL` (hook sites pass enum members or
#: plain strings; the recorder compares against this set).
TERMINAL_VALUES = frozenset(r.value for r in TERMINAL)


class DropLedger:
    """Terminal drops of one simulation, counted by reason.

    ``drop(packet, reason, node)`` is the one call a layer makes when a
    packet's life ends. It counts every call, control packets included
    (an IFQ that rejects a routing packet counts it under ``ifq_full``),
    and hands the event to the flight recorder when one is attached,
    which keeps only data packets.
    """

    __slots__ = ("counts", "flight")

    def __init__(self) -> None:
        #: Calls per terminal reason, in :class:`DropReason` order.
        self.counts: Dict[DropReason, int] = {
            r: 0 for r in DropReason if r in TERMINAL
        }
        #: Optional :class:`repro.obs.flight.FlightRecorder`.
        self.flight = None

    def drop(self, packet, reason: DropReason, node: int) -> None:
        """*packet* was discarded at *node* for the terminal *reason*."""
        self.counts[reason] += 1
        flight = self.flight
        if flight is not None:
            flight.drop(packet, reason, node)

    def nonzero(self) -> Dict[str, int]:
        """``{reason value: count}`` of the reasons that occurred."""
        return {r.value: n for r, n in self.counts.items() if n}
