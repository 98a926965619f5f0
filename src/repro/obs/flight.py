"""The packet flight recorder: per-packet causal traces + conservation.

A :class:`FlightRecorder` rides on the simulator (``sim.flight``; the
default ``None`` keeps every hook dead, the same zero-overhead
discipline as the profiler) and follows each *measured* data
packet from traffic-source injection to its fate:

* **Accounting** (always on when the recorder exists): a per-packet
  state machine keyed by ``origin_uid`` — the stable identity every
  ``Packet.copy()`` preserves across hops —
  holding exactly one of ``live``, ``delivered``, ``in_flight``, or a
  terminal :class:`~repro.core.drops.DropReason` value. Delivery wins
  over any drop (multi-copy protocols may lose copies of a packet that
  still arrives); among drops the first terminal reason wins. The
  closing ledger is the conservation report ``repro obs why`` prints::

      offered == delivered + Σ drops_by_reason + in_flight

  with ``unaccounted`` (live packets the end-of-run residual scan could
  not find in any queue) as the bug detector that must stay zero.

* **Causal trace** (``trace=True``): JSONL events — inject, route,
  buffer, IFQ, MAC attempts, PHY tx/verdicts, forwards, delivery,
  drops — exportable to Chrome ``trace_event`` format via
  :func:`flight_to_chrome` / ``repro obs trace``. Sampled by
  ``origin_uid % sample`` (``MANETSIM_TRACE_SAMPLE``); accounting is
  always complete regardless of sampling.

Drops may be observed *before* injection: a traffic source originates
through the routing agent first and invokes the metrics ``on_send``
hook after, so a synchronous no-route drop precedes ``inject``. Those
verdicts are parked in a pre-drop buffer and claimed at injection.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List

from ..core.drops import TERMINAL_VALUES, DropReason

__all__ = [
    "FLIGHT_SCHEMA_VERSION",
    "FlightRecorder",
    "report_from_state",
    "flight_jsonl_str",
    "write_flight_jsonl",
    "load_flight_jsonl",
    "flight_to_chrome",
]

FLIGHT_SCHEMA_VERSION = 1

_LIVE = "live"
_DELIVERED = "delivered"
_IN_FLIGHT = "in_flight"


def _reason_value(reason) -> str:
    """Normalize a DropReason member or plain string to its value."""
    return reason.value if isinstance(reason, DropReason) else reason


class FlightRecorder:
    """Per-packet lifecycle ledger (and optional causal event trace)."""

    def __init__(self, sim=None, trace: bool = False, sample: int = 1):
        if sample < 1:
            raise ValueError(f"trace sample must be >= 1, got {sample}")
        self.sim = sim
        self.trace = trace
        self.sample = sample
        #: Measured data packets injected by traffic sources.
        self.offered = 0
        #: origin_uid -> live | delivered | in_flight | terminal reason.
        self._state: Dict[int, str] = {}
        #: Terminal verdicts observed before injection (source hooks run
        #: after the synchronous originate path).
        self._predrop: Dict[int, str] = {}
        #: Trace events as JSON-ready dicts (empty unless ``trace``).
        self.events: List[dict] = []

    # ------------------------------------------------------------- hooks

    def _now(self) -> float:
        sim = self.sim
        return sim._now if sim is not None else 0.0

    def sampled(self, origin: int) -> bool:
        """Whether *origin*'s events are recorded under the sample knob."""
        return self.trace and origin % self.sample == 0

    def note(self, ev: str, origin: int, node: int, **info) -> None:
        """Record a trace event (no accounting effect)."""
        if not self.trace or origin % self.sample != 0:
            return
        entry = {"t": self._now(), "ev": ev, "origin": origin, "node": node}
        if info:
            entry.update(info)
        self.events.append(entry)

    def inject(self, packet, measured: bool = True) -> None:
        """A traffic source originated *packet* (metrics on_send hook)."""
        origin = packet.origin_uid
        if not measured:
            # Warm-up traffic: not part of the ledger; discard any
            # parked pre-injection verdict so the buffer stays bounded.
            self._predrop.pop(origin, None)
            return
        self.offered += 1
        self._state[origin] = self._predrop.pop(origin, _LIVE)
        if self.trace and origin % self.sample == 0:
            self.events.append({
                "t": self._now(), "ev": "inject", "origin": origin,
                "node": packet.src, "dst": packet.dst,
            })

    def deliver(self, packet, node: int) -> None:
        """First delivery of *packet* at its destination (wins over drops)."""
        origin = packet.origin_uid
        if origin in self._state:
            self._state[origin] = _DELIVERED
        if self.trace and origin % self.sample == 0:
            self.events.append({
                "t": self._now(), "ev": "deliver", "origin": origin,
                "node": node, "hops": packet.hops,
            })

    def drop(self, packet, reason, node: int = -1) -> None:
        """*packet* was discarded at *node* for *reason*.

        Tolerates ``None`` and control packets (link-failure victim
        loops pass whatever they purged); only terminal reasons on a
        still-live measured packet consume it in the ledger.
        """
        if packet is None or not packet.is_data:
            return
        origin = packet.origin_uid
        value = _reason_value(reason)
        state = self._state.get(origin)
        if state is None:
            if value in TERMINAL_VALUES:
                self._predrop.setdefault(origin, value)
        elif state == _LIVE and value in TERMINAL_VALUES:
            self._state[origin] = value
        if self.trace and origin % self.sample == 0:
            self.events.append({
                "t": self._now(), "ev": "drop", "origin": origin,
                "node": node, "reason": value,
            })

    # ------------------------------------------------------------ closing

    def _mark_in_flight(self, pkt) -> int:
        if pkt is None or not pkt.is_data:
            return 0
        origin = pkt.origin_uid
        if self._state.get(origin) == _LIVE:
            self._state[origin] = _IN_FLIGHT
            return 1
        return 0

    def scan_residuals(self, nodes) -> int:
        """End-of-run sweep: find live packets still parked in a queue.

        Walks every place a data packet legitimately waits when the
        clock runs out — routing send buffers, interface queues, the
        MAC's in-service slot and CTS-granted data frame — and moves
        matching live entries to ``in_flight``. Whatever stays ``live``
        afterwards is *unaccounted*: a leak in the drop taxonomy.
        """
        found = 0
        mark = self._mark_in_flight
        for node in nodes:
            if node is None:
                continue
            buf = getattr(node.routing, "buffer", None)
            if buf is not None:
                for _, pkt in getattr(buf, "_entries", ()):
                    found += mark(pkt)
            mac = node.mac
            ifq = getattr(mac, "ifq", None)
            if ifq is not None:
                for q in (ifq._control, ifq._data):
                    for pkt, _ in q:
                        found += mark(pkt)
            current = getattr(mac, "_current", None)
            if current is not None:
                found += mark(current[0])
            pending = getattr(mac, "_pending_data", None)
            if pending is not None:
                found += mark(getattr(pending, "payload", None))
        return found

    def report(self) -> dict:
        """The conservation ledger (see module docstring)."""
        return report_from_state(self.offered, self._state)

    def summary_dict(self) -> dict:
        """What ``MetricsSummary.flight`` carries: report (+ trace)."""
        out = self.report()
        if self.trace:
            out["events"] = list(self.events)
            out["sample"] = self.sample
        return out


# ----------------------------------------------------------------- report


def report_from_state(offered: int, state: Dict[int, str]) -> dict:
    """Fold an origin→state map into the conservation report."""
    counts = Counter(state.values())
    delivered = counts.pop(_DELIVERED, 0)
    in_flight = counts.pop(_IN_FLIGHT, 0)
    unaccounted = counts.pop(_LIVE, 0)
    drops = {k: counts[k] for k in sorted(counts)}
    conserved = (
        unaccounted == 0
        and offered == delivered + in_flight + sum(drops.values())
    )
    return {
        "offered": offered,
        "delivered": delivered,
        "in_flight": in_flight,
        "unaccounted": unaccounted,
        "drops_by_reason": drops,
        "conserved": conserved,
    }


# ------------------------------------------------------------ JSONL + chrome


def flight_jsonl_str(flight: dict) -> str:
    """Serialize a ``MetricsSummary.flight`` dict as JSONL text.

    Line 1 is the schema header, then one event per line, then the
    closing conservation report — readable by :func:`load_flight_jsonl`
    and convertible by :func:`flight_to_chrome`.
    """
    lines = []
    header = {"flight_schema": FLIGHT_SCHEMA_VERSION}
    if "sample" in flight:
        header["sample"] = flight["sample"]
    lines.append(json.dumps(header))
    for ev in flight.get("events", ()):
        lines.append(json.dumps(ev))
    report = {k: v for k, v in flight.items() if k not in ("events", "sample")}
    lines.append(json.dumps({"report": report}))
    return "\n".join(lines) + "\n"


def write_flight_jsonl(flight: dict, path) -> None:
    """Write :func:`flight_jsonl_str` of *flight* to *path*."""
    with open(path, "w") as fh:
        fh.write(flight_jsonl_str(flight))


def load_flight_jsonl(path) -> dict:
    """Read a flight JSONL back into a summary-style dict.

    Tolerates a missing header (schema 1 assumed) and a missing closing
    report (events-only files), so partial/streamed traces still load.
    """
    events: List[dict] = []
    report: dict = {}
    schema = FLIGHT_SCHEMA_VERSION
    sample = 1
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            if "flight_schema" in entry:
                schema = entry["flight_schema"]
                sample = entry.get("sample", 1)
            elif "report" in entry:
                report = entry["report"]
            else:
                events.append(entry)
    out = dict(report)
    out["schema"] = schema
    if sample != 1:
        out["sample"] = sample
    if events:
        out["events"] = events
    return out


def flight_to_chrome(flight: dict) -> dict:
    """Convert a flight dict to Chrome ``trace_event`` JSON.

    Every event becomes a thread-scoped instant on ``tid = node`` with
    timestamps in microseconds; per-packet causality is drawn as a flow
    (``s``/``t``/``f``) keyed by ``origin``, so chrome://tracing and
    Perfetto render each packet's hop-by-hop path as a connected arrow
    chain.
    """
    trace_events: List[dict] = []
    by_origin: Dict[int, List[dict]] = {}
    for ev in flight.get("events", ()):
        by_origin.setdefault(ev["origin"], []).append(ev)
    for origin, evs in sorted(by_origin.items()):
        evs.sort(key=lambda e: e["t"])
        last = len(evs) - 1
        for i, ev in enumerate(evs):
            ts = ev["t"] * 1e6
            args = {
                k: v for k, v in ev.items()
                if k not in ("t", "ev", "origin", "node")
            }
            args["origin"] = origin
            trace_events.append({
                "name": ev["ev"], "ph": "i", "s": "t",
                "ts": ts, "pid": 0, "tid": ev["node"],
                "cat": "flight", "args": args,
            })
            if last > 0:
                ph = "s" if i == 0 else ("f" if i == last else "t")
                flow = {
                    "name": f"pkt-{origin}", "ph": ph, "id": origin,
                    "ts": ts, "pid": 0, "tid": ev["node"],
                    "cat": "flight",
                }
                if ph == "f":
                    flow["bp"] = "e"
                trace_events.append(flow)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "metadata": {"flight_schema": flight.get("schema", FLIGHT_SCHEMA_VERSION)},
    }
