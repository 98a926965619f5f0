"""ns-2-style event traces: writing, parsing, and offline analysis.

ns-2 workflows compute metrics by post-processing ``.tr`` traces; this
module reproduces that pipeline as an independent path to the same
numbers, which the test suite uses to cross-validate the online
:class:`~repro.stats.metrics.MetricsCollector` (two implementations,
one truth).

Format (whitespace-separated, one event per line)::

    s <time> <node> AGT <uid> cbr <size>          # data sent by app
    r <time> <node> AGT <uid> cbr <size> <src> <created> <hops>
    s <time> <node> RTR <uid> <proto> <size>      # control transmission

Only the events the metrics need are traced — this is a measurement
format, not a debugger (use ``ScenarioConfig.flight_trace`` for
that).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import List, Optional, TextIO

from ..net.packet import Packet
from ..net.stack import Network

__all__ = ["TraceWriter", "TraceAnalyzer", "analyze_trace"]


class TraceWriter:
    """Hooks a network and writes measurement trace lines.

    Tracing is pay-for-what-you-use: a writer constructed with
    ``enabled=False`` installs no hooks at all, so the send/receive
    paths run exactly as in an untraced scenario. When enabled, lines
    accumulate in a list and are joined into the underlying stream
    every ``batch_size`` events (and on :meth:`flush` /
    :meth:`getvalue`), so the per-event cost is one f-string and one
    list append instead of a stream write. Batching never reorders or
    rewrites lines — the flushed text is byte-identical to per-event
    writes.

    Parameters
    ----------
    network:
        Wired scenario network.
    stream:
        Writable text stream (defaults to an in-memory buffer exposed
        via :meth:`getvalue`).
    enabled:
        When False, install no hooks; every method is a no-op.
    batch_size:
        Buffered lines per stream write.
    """

    def __init__(
        self,
        network: Network,
        stream: Optional[TextIO] = None,
        enabled: bool = True,
        batch_size: int = 1024,
    ):
        self.network = network
        self.stream = stream if stream is not None else io.StringIO()
        self.enabled = enabled
        self.batch_size = batch_size
        self._buf: List[str] = []
        self._sim = network.sim
        if not enabled:
            return
        for node in network.nodes:
            node.register_receiver(
                lambda pkt, prev, _nid=node.node_id: self._on_receive(_nid, pkt)
            )
            self._wrap_control(node)

    # ------------------------------------------------------------- hooks

    def on_send(self, packet: Packet) -> None:
        """Traffic-source hook (pass as CbrSource ``on_send``)."""
        if not self.enabled:
            return
        self._buf.append(
            f"s {self._sim.now:.9f} {packet.src} AGT {packet.origin_uid} "
            f"cbr {packet.size}\n"
        )
        if len(self._buf) >= self.batch_size:
            self._drain()

    def _on_receive(self, node_id: int, packet: Packet) -> None:
        if not packet.is_data or packet.proto != "cbr":
            return
        self._buf.append(
            f"r {self._sim.now:.9f} {node_id} AGT {packet.origin_uid} "
            f"cbr {packet.size} {packet.src} {packet.created:.9f} {packet.hops}\n"
        )
        if len(self._buf) >= self.batch_size:
            self._drain()

    def _wrap_control(self, node) -> None:
        routing = node.routing
        original = routing.send_control
        buf = self._buf

        def traced_send_control(packet, next_hop, jitter=None, _orig=original):
            buf.append(
                f"s {self._sim.now:.9f} {routing.addr} RTR {packet.uid} "
                f"{packet.proto} {packet.size}\n"
            )
            if len(buf) >= self.batch_size:
                self._drain()
            _orig(packet, next_hop, jitter)

        routing.send_control = traced_send_control

    # ------------------------------------------------------------ flushing

    def _drain(self) -> None:
        self.stream.write("".join(self._buf))
        del self._buf[:]

    def flush(self) -> None:
        """Push buffered lines to the stream (and flush it if it can)."""
        if self._buf:
            self._drain()
        stream_flush = getattr(self.stream, "flush", None)
        if stream_flush is not None:
            stream_flush()

    def getvalue(self) -> str:
        """The trace text (only for in-memory streams)."""
        if self._buf:
            self._drain()
        return self.stream.getvalue()


@dataclass
class TraceAnalyzer:
    """Metrics recomputed purely from a trace text."""

    data_sent: int = 0
    data_received: int = 0
    control_transmissions: int = 0
    control_bytes: int = 0
    delays: List[float] = field(default_factory=list)
    hops: List[int] = field(default_factory=list)
    _delivered: set = field(default_factory=set)

    @property
    def pdr(self) -> float:
        return self.data_received / self.data_sent if self.data_sent else 0.0

    @property
    def avg_delay(self) -> float:
        return sum(self.delays) / len(self.delays) if self.delays else 0.0

    @property
    def normalized_routing_load(self) -> float:
        if self.data_received:
            return self.control_transmissions / self.data_received
        return float("inf") if self.control_transmissions else 0.0

    def feed_line(self, line: str) -> None:
        parts = line.split()
        if len(parts) < 6:
            return
        event, time_s, _node, layer, uid = parts[:5]
        if layer == "AGT" and event == "s":
            self.data_sent += 1
        elif layer == "AGT" and event == "r":
            if uid in self._delivered:
                return
            self._delivered.add(uid)
            self.data_received += 1
            created = float(parts[8])
            self.delays.append(float(time_s) - created)
            self.hops.append(int(parts[9]))
        elif layer == "RTR" and event == "s":
            self.control_transmissions += 1
            self.control_bytes += int(parts[6])


def analyze_trace(text: str) -> TraceAnalyzer:
    """Parse a full trace text into a :class:`TraceAnalyzer`."""
    analyzer = TraceAnalyzer()
    for line in text.splitlines():
        analyzer.feed_line(line)
    return analyzer
