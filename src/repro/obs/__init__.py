"""Observability: spans/timers, telemetry probes, manifests, flights.

Four pillars, all pay-for-what-you-use (zero hooks installed and zero
hot-path cost when disabled):

* :class:`Profiler` — wall-time spans from class-level wrappers on one
  table of layer entry points and the schedulers, charged to the
  ``repro`` package the code lives in (``MetricsSummary.profile``,
  ``repro run --profile``, ``repro obs report``); profiled runs only.
* :class:`TelemetryRecorder` — time-series probes sampling simulator
  state (queue depths, routing-state sizes, in-flight arrivals, energy,
  perf-counter deltas, faulted nodes) at a configurable sim-time
  interval into a bounded ring buffer, exportable as JSONL/CSV.
* :mod:`repro.obs.manifest` — sweep-level ``manifest.json`` records
  (config hash, toolchain versions, per-job wall time, failure taxonomy,
  worker utilization) plus the single-line sweep progress display.
* :class:`FlightRecorder` — per-packet lifecycle ledger and causal
  event trace: every measured data packet from injection to delivery,
  a terminal :class:`~repro.core.drops.DropReason`, or end-of-run
  in-flight residue, closing into the conservation report ``repro obs
  why`` checks and the Chrome-traceable flight JSONL ``repro obs
  trace`` converts.
"""

from .flight import (
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    flight_jsonl_str,
    flight_to_chrome,
    load_flight_jsonl,
    report_from_state,
    write_flight_jsonl,
)
from .manifest import ProgressLine, build_manifest, manifest_summary_pairs
from .profiler import Profiler, profile_layer_seconds
from .report import render_manifest_report, render_profile_table
from .telemetry import (
    TELEMETRY_SCHEMA,
    TelemetryRecorder,
    load_telemetry_jsonl,
    validate_sample,
)

__all__ = [
    "Profiler",
    "profile_layer_seconds",
    "TELEMETRY_SCHEMA",
    "TelemetryRecorder",
    "validate_sample",
    "load_telemetry_jsonl",
    "ProgressLine",
    "build_manifest",
    "manifest_summary_pairs",
    "render_profile_table",
    "render_manifest_report",
    "FLIGHT_SCHEMA_VERSION",
    "FlightRecorder",
    "flight_jsonl_str",
    "flight_to_chrome",
    "load_flight_jsonl",
    "report_from_state",
    "write_flight_jsonl",
]
