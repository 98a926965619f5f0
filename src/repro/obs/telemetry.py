"""Time-series telemetry probes over a running simulation.

A :class:`TelemetryRecorder` samples simulator state every
``interval`` simulated seconds via an ordinary self-rescheduling event.
Probes are **read-only** — they touch no RNG stream and mutate no layer
state — so a seeded run produces bit-identical metrics with telemetry
on or off (pinned by the determinism tests). Samples land in a bounded
ring buffer (old samples are evicted first) and export as JSONL or CSV
for the ``analysis`` layer.

Sample schema (one flat dict per sample; ``perf`` nests the
perf-counter *deltas* accumulated since the previous sample)::

    {"t": 12.0, "events_scheduled": 41023, "pending_events": 310,
     "ifq_depth_total": 14, "ifq_depth_max": 6, "sendbuf_depth_total": 2,
     "route_entries_total": 118, "cache_entries_total": 40,
     "neighbor_entries_total": 96, "inflight_arrivals": 3,
     "mac_responses_abandoned": 2, "nodes_faulted": 1, "energy_j": 151.2,
     "drops_total": 7, "perf": {"fanout_cache_hits": 904, ...}}

Schema history: v2 added the cumulative ``drops_total`` probe and a
``{"telemetry_schema": N}`` header line in the JSONL export.
:func:`load_telemetry_jsonl` reads both generations — v1 files (no
header) are migrated on load with ``drops_total = 0``.
"""

from __future__ import annotations

import csv
import json
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..stats.energy import EnergyParams

__all__ = [
    "TELEMETRY_SCHEMA",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryRecorder",
    "validate_sample",
    "load_telemetry_jsonl",
]

TELEMETRY_SCHEMA_VERSION = 2

#: Field name -> required type for every telemetry sample.
TELEMETRY_SCHEMA: Dict[str, type] = {
    "t": float,
    "events_scheduled": int,
    "pending_events": int,
    "ifq_depth_total": int,
    "ifq_depth_max": int,
    "sendbuf_depth_total": int,
    "route_entries_total": int,
    "cache_entries_total": int,
    "neighbor_entries_total": int,
    "inflight_arrivals": int,
    "mac_responses_abandoned": int,
    "nodes_faulted": int,
    "energy_j": float,
    "drops_total": int,
    "perf": dict,
}


def validate_sample(sample: dict) -> None:
    """Raise ``ValueError`` unless *sample* matches the schema exactly."""
    missing = TELEMETRY_SCHEMA.keys() - sample.keys()
    extra = sample.keys() - TELEMETRY_SCHEMA.keys()
    if missing or extra:
        raise ValueError(
            f"telemetry sample keys mismatch: missing={sorted(missing)} "
            f"extra={sorted(extra)}"
        )
    for name, typ in TELEMETRY_SCHEMA.items():
        value = sample[name]
        if typ is float:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        else:
            ok = isinstance(value, typ) and not isinstance(value, bool)
        if not ok:
            raise ValueError(
                f"telemetry field {name!r} should be {typ.__name__}, "
                f"got {type(value).__name__} ({value!r})"
            )


class TelemetryRecorder:
    """Periodic read-only probes into every layer of one scenario.

    Parameters
    ----------
    sim, network:
        The simulator and wired network to observe.
    interval:
        Sim-time seconds between samples (> 0).
    faults:
        Optional :class:`~repro.faults.manager.FaultManager` for the
        live faulted-node count (``None`` reads routing ``alive`` flags,
        which covers fault-free runs trivially).
    capacity:
        Ring-buffer bound; the oldest samples are evicted beyond it.
    energy_params:
        Electrical power draws for the cumulative energy probe.
    """

    def __init__(
        self,
        sim,
        network,
        interval: float,
        faults=None,
        capacity: int = 8192,
        energy_params: EnergyParams = EnergyParams(),
    ):
        if interval <= 0:
            raise ValueError(f"telemetry interval must be > 0, got {interval}")
        if capacity < 1:
            raise ValueError(f"telemetry capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.network = network
        self.interval = float(interval)
        self.faults = faults
        self.capacity = capacity
        self.energy_params = energy_params
        self.samples: deque = deque(maxlen=capacity)
        #: Samples evicted from the ring (total taken = len + dropped).
        self.dropped = 0
        self._last_perf: Dict[str, int] = {}
        self._started = False

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Schedule the first probe (idempotent)."""
        if self._started:
            return
        self._started = True
        self._last_perf = dict(self.sim.perf.as_dict())
        self.sim.schedule(self.interval, self._tick)

    def _tick(self) -> None:
        self.sample()
        self.sim.schedule(self.interval, self._tick)

    # --------------------------------------------------------------- probing

    def sample(self) -> dict:
        """Take one probe sweep now; returns the recorded sample."""
        sim = self.sim
        nodes = self.network.nodes
        ifq_total = 0
        ifq_max = 0
        sendbuf = 0
        routes = 0
        caches = 0
        neighbors = 0
        inflight = 0
        abandoned = 0
        faulted = 0
        drops = 0
        for node in nodes:
            depth = node.mac.queue_depth()
            mstats = node.mac.stats
            abandoned += mstats.responses_abandoned
            rstats = node.routing.stats
            # Cumulative terminal discards so far (salvage is a subset
            # of no_route; retry-limit frames are counted because the
            # routing layer may yet turn them into buffer/no-route
            # drops — this probe tracks pressure, not conservation).
            drops += (
                rstats.drops_no_route
                + rstats.drops_buffer
                + rstats.drops_link
                + mstats.drops_retry_limit
                + mstats.drops_ifq_full
            )
            ifq_total += depth
            if depth > ifq_max:
                ifq_max = depth
            routing = node.routing
            sizes = routing.state_sizes()
            routes += sizes["routes"]
            caches += sizes["cache"]
            neighbors += sizes["neighbors"]
            sendbuf += sizes["buffer"]
            inflight += node.radio.active_arrival_count()
            if not routing.alive:
                faulted += 1

        # Energy consumed so far: airtime counters × power draws, idle
        # filling the remainder of the elapsed sim time (same accounting
        # as stats.energy, evaluated mid-run).
        p = self.energy_params
        now = sim.now
        energy = 0.0
        for node in nodes:
            s = node.radio.stats
            tx_t = min(s.airtime_tx, now)
            rx_t = min(s.airtime_rx, now - tx_t)
            idle_t = max(now - tx_t - rx_t, 0.0)
            energy += (
                tx_t * p.tx_power_w + rx_t * p.rx_power_w + idle_t * p.idle_power_w
            )

        perf_now = sim.perf.as_dict()
        last = self._last_perf
        deltas = {k: v - last.get(k, 0) for k, v in perf_now.items()}
        self._last_perf = perf_now

        sample = {
            "t": float(now),
            # _seq counts every event ever pushed — exact and available
            # mid-run, unlike events_processed (folded in post-run).
            "events_scheduled": int(sim._queue._seq),
            "pending_events": int(sim.pending()),
            "ifq_depth_total": ifq_total,
            "ifq_depth_max": ifq_max,
            "sendbuf_depth_total": sendbuf,
            "route_entries_total": routes,
            "cache_entries_total": caches,
            "neighbor_entries_total": neighbors,
            "inflight_arrivals": inflight,
            # Cumulative third-party SIFS responses the MAC dropped
            # because the medium turned busy before the turnaround.
            "mac_responses_abandoned": abandoned,
            "nodes_faulted": faulted,
            "energy_j": energy,
            "drops_total": drops,
            "perf": deltas,
        }
        if len(self.samples) == self.capacity:
            self.dropped += 1
        self.samples.append(sample)
        sim.perf.telemetry_samples += 1
        return sample

    # --------------------------------------------------------------- export

    def write_jsonl(self, path: Union[str, Path]) -> int:
        """One JSON object per line; returns the sample count written.

        Line 1 is a ``{"telemetry_schema": N}`` header (since schema
        v2); :func:`load_telemetry_jsonl` also accepts headerless v1
        files.
        """
        with open(path, "w") as fh:
            fh.write(
                json.dumps({"telemetry_schema": TELEMETRY_SCHEMA_VERSION})
                + "\n"
            )
            for sample in self.samples:
                fh.write(json.dumps(sample, sort_keys=True) + "\n")
        return len(self.samples)

    def write_csv(self, path: Union[str, Path]) -> int:
        """Flat CSV (perf deltas become ``perf_<counter>`` columns)."""
        rows = [self._flatten(s) for s in self.samples]
        header: List[str] = []
        for row in rows:
            for key in row:
                if key not in header:
                    header.append(key)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=header, restval=0)
            writer.writeheader()
            writer.writerows(rows)
        return len(rows)

    @staticmethod
    def _flatten(sample: dict) -> dict:
        flat = {k: v for k, v in sample.items() if k != "perf"}
        for name, delta in sample["perf"].items():
            flat[f"perf_{name}"] = delta
        return flat


def load_telemetry_jsonl(path: Union[str, Path]) -> List[dict]:
    """Parse a telemetry JSONL file back into sample dicts (validated).

    Migration-tolerant across schema generations: the v2 header line is
    consumed (its absence means a v1 file), fields added after a file's
    schema version are back-filled with zero defaults (``drops_total``
    for v1 samples), and fields this version does not know about —
    a *newer* writer — are dropped rather than rejected. Validation
    still runs on the migrated sample, so genuinely malformed files
    fail loudly.
    """
    samples: List[dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            if "telemetry_schema" in entry:
                continue  # header line; version only gates migration
            entry.setdefault("drops_total", 0)
            entry = {k: v for k, v in entry.items() if k in TELEMETRY_SCHEMA}
            validate_sample(entry)
            samples.append(entry)
    return samples
