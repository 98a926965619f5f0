"""Metric collection: the paper's four quantitative metrics + extras.

* **Packet delivery ratio** — received data packets / sent data packets.
* **Average end-to-end delay** — mean (arrival − creation) over
  delivered data packets; includes buffering during route discovery,
  queueing, contention, and retransmission.
* **Normalized routing load** — routing control *transmissions* (every
  hop of every control packet counts once, the Broch et al. convention)
  per delivered data packet.
* **Normalized MAC load** — (routing control transmissions + RTS + CTS
  + MAC ACK frames) per delivered data packet.

Plus: throughput, hop counts, per-flow breakdowns, and drop accounting.
The collector hooks node receive callbacks and CBR ``on_send`` at build
time; totals from layer stats objects are read once at :meth:`finish`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.schema import from_json
from ..net.packet import Packet
from ..net.stack import Network

__all__ = ["MetricsCollector", "MetricsSummary", "FlowStats", "HEADLINE_FIELDS"]

#: The scalar results of a run, in table order: the sweep CSV columns
#: and the ``metrics`` object of the broker's HTTP point lines.
HEADLINE_FIELDS = (
    "protocol", "duration", "data_sent", "data_received", "pdr",
    "avg_delay", "p95_delay", "avg_hops", "throughput_bps",
    "routing_overhead_packets", "routing_overhead_bytes",
    "normalized_routing_load", "mac_overhead_frames",
    "normalized_mac_load", "drops_no_route", "drops_buffer", "drops_ifq",
    "drops_retry", "mac_collisions", "fault_crashes", "fault_downtime",
    "fault_recovery_latency", "fault_packets_lost",
)

# Prime NumPy's quantile machinery: its lazy first-call setup costs
# ~20 ms, which would otherwise land inside the first measured run.
np.percentile(np.zeros(1), 95.0)


@dataclass
class FlowStats:
    """Per-flow send/receive accounting."""

    flow_id: int
    src: int
    dst: int
    sent: int = 0
    received: int = 0
    delays: List[float] = field(default_factory=list)

    @property
    def pdr(self) -> float:
        return self.received / self.sent if self.sent else 0.0


@dataclass
class MetricsSummary:
    """End-of-run metric values for one simulation."""

    protocol: str
    duration: float
    data_sent: int
    data_received: int
    pdr: float
    avg_delay: float
    p95_delay: float
    avg_hops: float
    throughput_bps: float
    #: Routing control transmissions (all hops).
    routing_overhead_packets: int
    routing_overhead_bytes: int
    normalized_routing_load: float
    #: Routing control + RTS/CTS/ACK frames.
    mac_overhead_frames: int
    normalized_mac_load: float
    drops_no_route: int
    drops_buffer: int
    drops_ifq: int
    drops_retry: int
    mac_collisions: int
    #: Fault-injection accounting (all zero when no fault plan is set;
    #: filled in by the FaultManager after collection).
    fault_crashes: int = 0
    fault_downtime: float = 0.0
    fault_recovery_latency: float = 0.0
    fault_packets_lost: int = 0
    flows: Dict[int, FlowStats] = field(default_factory=dict)
    #: Hot-path cache/engine counters (see repro.core.perfcounters);
    #: attached by Scenario.run. Not a simulation *result*: two runs
    #: with different caching knobs produce identical metrics but
    #: different counters.
    perf: Dict[str, int] = field(default_factory=dict, compare=False)
    #: Per-layer wall-time span profile (see repro.obs.profiler);
    #: attached by Scenario.run when ``config.profile`` is set. Like
    #: ``perf``, excluded from equality: wall time is not a result.
    profile: Dict[str, Dict[str, float]] = field(
        default_factory=dict, compare=False
    )
    #: Per-:class:`~repro.core.drops.DropReason` packet-drop breakdown
    #: derived from the always-on layer counters (nonzero keys only).
    #: A cheap aggregate view — exact conservation against offered load
    #: needs the flight recorder (``flight`` below / ``repro obs why``).
    drops_by_reason: Dict[str, int] = field(default_factory=dict)
    #: Flight-recorder conservation report (plus trace events when
    #: ``flight_trace``); ``None`` unless the recorder was attached.
    #: Excluded from equality so recorder on/off summaries compare
    #: bit-identical (the recorder must never change results).
    flight: Optional[dict] = field(default=None, compare=False)

    # The one result codec: the result store, the fabric's result and
    # point frames, and the HTTP shim all carry a summary as this dict.

    def to_dict(self) -> dict:
        """JSON-ready dict (``json.dumps`` turns flow ids into strings)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsSummary":
        """Validate decoded JSON and rebuild; raises ConfigurationError."""
        return from_json(cls, data, "summary")

    def row(self) -> Dict[str, float]:
        """Flat dict of the headline metrics (for tables/aggregation)."""
        return {
            "pdr": self.pdr,
            "avg_delay": self.avg_delay,
            "nrl": self.normalized_routing_load,
            "mac_load": self.normalized_mac_load,
            "overhead_pkts": float(self.routing_overhead_packets),
            "throughput_bps": self.throughput_bps,
            "avg_hops": self.avg_hops,
        }


def _layer_totals(nodes) -> tuple:
    routing_pkts = 0
    routing_bytes = 0
    drops_no_route = 0
    drops_buffer = 0
    drops_ifq = 0
    drops_retry = 0
    mac_ctrl = 0
    collisions = 0
    drops_ttl = 0
    drops_salvage = 0
    drops_link = 0
    drops_node_down = 0
    buf_full = 0
    buf_expired = 0
    ifq_evicted = 0
    for node in nodes:
        rs = node.routing.stats
        routing_pkts += rs.control_packets
        routing_bytes += rs.control_bytes
        drops_no_route += rs.drops_no_route
        drops_buffer += rs.drops_buffer
        drops_ttl += rs.drops_ttl
        drops_salvage += getattr(rs, "drops_salvage", 0)
        drops_link += getattr(rs, "drops_link", 0)
        drops_node_down += getattr(rs, "drops_node_down", 0)
        buf = getattr(node.routing, "buffer", None)
        if buf is not None:
            buf_full += buf.drops_full
            buf_expired += buf.drops_expired
        ms = node.mac.stats
        drops_ifq += ms.drops_ifq_full
        drops_retry += ms.drops_retry_limit
        mac_ctrl += ms.control_frames_sent
        collisions += node.radio.stats.collisions
        ifq_evicted += getattr(node.mac.ifq, "evictions", 0)
    # Terminal-reason breakdown (DropReason values); salvage-limit
    # drops also increment drops_no_route (the historical counter), so
    # they are carved out rather than double-counted here.
    raw = {
        "no_route": drops_no_route - drops_salvage,
        "salvage_limit": drops_salvage,
        "ttl_expired": drops_ttl,
        "send_buffer_giveup": drops_buffer,
        "send_buffer_full": buf_full,
        "send_buffer_expired": buf_expired,
        "ifq_full": drops_ifq,
        "ifq_evicted": ifq_evicted,
        "link_lost": drops_link,
        "node_down": drops_node_down,
    }
    reasons = {k: v for k, v in raw.items() if v}
    return (
        routing_pkts, routing_bytes, drops_no_route, drops_buffer,
        drops_ifq, drops_retry, mac_ctrl, collisions, reasons,
    )


class MetricsCollector:
    """Accumulates data-plane events during a run; summarizes at the end."""

    #: Optional FlightRecorder (class default keeps instances hook-free
    #: unless the scenario builder wires one).
    flight = None

    def __init__(self, protocol: str):
        self.protocol = protocol
        self.flows: Dict[int, FlowStats] = {}
        self.data_sent = 0
        self.data_received = 0
        self._delays: List[float] = []
        self._hops: List[int] = []
        self._bytes_received = 0
        self._seen_deliveries = set()
        self._sim = None

    # ------------------------------------------------------------ wiring

    def attach(self, network: Network) -> None:
        """Register the receive hook on every node."""
        self._sim = network.sim
        for node in network.nodes:
            node.register_receiver(self.on_receive)

    def flow(self, flow_id: int, src: int, dst: int) -> FlowStats:
        fs = self.flows.get(flow_id)
        if fs is None:
            fs = FlowStats(flow_id, src, dst)
            self.flows[flow_id] = fs
        return fs

    # ------------------------------------------------------------- events

    def on_send(self, packet: Packet) -> None:
        """Hook for traffic sources (CbrSource ``on_send``)."""
        flight = self.flight
        if flight is not None:
            # Sources invoke on_send *after* the synchronous originate
            # path, so the recorder may already hold a pre-injection
            # drop verdict for this packet; inject claims it.
            flight.inject(packet)
        self.data_sent += 1
        payload = packet.payload
        if payload is not None and hasattr(payload, "flow_id"):
            self.flow(payload.flow_id, packet.src, packet.dst).sent += 1
            # Stamp creation (Node.send already set created = now).

    def on_receive(self, packet: Packet, prev_hop: int) -> None:
        """Node receive callback: a data packet reached its destination."""
        if not packet.is_data or packet.proto != "cbr":
            return
        if packet.origin_uid in self._seen_deliveries:
            return  # duplicate delivery (should be rare; MAC dedups)
        self._seen_deliveries.add(packet.origin_uid)
        flight = self.flight
        if flight is not None:
            flight.deliver(packet, packet.dst)
        self.data_received += 1
        # Delivery callbacks run inside the event that delivered the
        # packet, so the simulator clock is the arrival time; ``created``
        # was stamped at origination by Node.send.
        now = self._sim.now
        delay = max(0.0, now - packet.created)
        self._bytes_received += packet.size
        self._delays.append(delay)
        self._hops.append(packet.hops)
        payload = packet.payload
        if payload is not None and hasattr(payload, "flow_id"):
            fs = self.flows.get(payload.flow_id)
            if fs is not None:
                fs.received += 1
                fs.delays.append(delay)

    # ------------------------------------------------------------- summary

    def finish(self, network: Network, duration: float) -> MetricsSummary:
        """Fold layer counters into the final summary."""
        (routing_pkts, routing_bytes, drops_no_route, drops_buffer,
         drops_ifq, drops_retry, mac_ctrl, collisions,
         drop_reasons) = _layer_totals(network.nodes)
        sent = self.data_sent
        received = self.data_received
        if self._delays:
            delays = np.asarray(self._delays, dtype=np.float64)
            avg_delay = float(delays.mean())
            p95_delay = float(np.percentile(delays, 95))
            avg_hops = float(np.asarray(self._hops, dtype=np.float64).mean())
        else:
            avg_delay = p95_delay = avg_hops = 0.0
        mac_frames = routing_pkts + mac_ctrl
        return MetricsSummary(
            protocol=self.protocol,
            duration=duration,
            data_sent=sent,
            data_received=received,
            pdr=received / sent if sent else 0.0,
            avg_delay=avg_delay,
            p95_delay=p95_delay,
            avg_hops=avg_hops,
            throughput_bps=(
                self._bytes_received * 8.0 / duration if duration else 0.0
            ),
            routing_overhead_packets=routing_pkts,
            routing_overhead_bytes=routing_bytes,
            normalized_routing_load=(
                routing_pkts / received if received
                else float("inf") if routing_pkts else 0.0
            ),
            mac_overhead_frames=mac_frames,
            normalized_mac_load=(
                mac_frames / received if received
                else float("inf") if mac_frames else 0.0
            ),
            drops_no_route=drops_no_route,
            drops_buffer=drops_buffer,
            drops_ifq=drops_ifq,
            drops_retry=drops_retry,
            mac_collisions=collisions,
            flows=self.flows,
            drops_by_reason=drop_reasons,
        )
