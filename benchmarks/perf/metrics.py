"""Every metric the benchmark reports: name, unit, direction, and what it should move.

This module is the single source of the names. ``BENCHMARK.json`` at the
repository root is its rendering (``python benchmarks/perf/metrics.py >
BENCHMARK.json``); ``tests/test_schema.py`` fails when the two disagree.
"""

from __future__ import annotations

import json

from trace import LAYERS
from workloads import WORKLOADS

__all__ = ["END_TO_END", "NONE", "PER_LAYER", "RUN_SECONDS", "SETUP_FLOOR_S",
           "WORKLOAD_WHY", "benchmark_json"]

#: Seconds one pass over one workload measures for.
RUN_SECONDS = 20

#: (name, unit, better, bound). ``bound`` is the share of the baseline's
#: median by which the metric may worsen before it counts as a regression.
#: The time bounds are the widest the format allows. On a quiet host the
#: ten-seed spread (interquartile range / median) of the three time
#: metrics is 3-5 % and 0.10 would do, but the reference box is not
#: quiet: in its slow spells the same ten seeds spread 10-24 %, and a
#: tighter bound would reject changes for the weather. Memory repeats to
#: 0.4 %. ``failed_share`` is reported by every run as ``failed`` /
#: ``attempted`` and compared at bound 0 by compare.py; it is absent here
#: because the format wants metrics that are never 0.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("sim_s_per_s", "sim_s/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: setup_s may also worsen by this many seconds before compare.py calls
#: it worse (a quarter of half a second is inside process-start noise).
SETUP_FLOOR_S = 0.1

WORKLOAD_WHY = {
    "paper_point": "one 50-node pause-0 point for each of the five paper protocols: the unit "
                   "the figures are made of, every layer does real work",
    "dense_cell": "20 static saturated nodes in one collision domain: cheapest events, "
                  "event queue, timer wheel and DCF dominate, PHY in full-overlap mode",
    "wide_field": "1000 mobile nodes, AODV floods: PHY fan-out, spatial grid and batched "
                  "arrivals dominate, PHY in sparse multi-cell mode",
    "table_driven": "1000 nodes, DSDV table dumps: routing control plane dominates; a "
                    "PHY, MAC or core optimisation should not move it",
    "figure_sweep": "35-point pause-time figure on a 2-process pool with a cold result "
                    "store: dispatch, pickling, store writes and pool scaling",
}

#: The workload on which each layer's share of the wall is largest, so
#: the one its self time should move.
_LAYER_HOME = {
    "core": "dense_cell", "mobility": "paper_point", "phy": "wide_field",
    "mac": "dense_cell", "routing": "table_driven", "net": "dense_cell",
    "traffic": "dense_cell", "stats": "dense_cell",
}

#: Simulated results and ledger validity: a speed-only change leaves them alone.
NONE = "none"


def _per_layer():
    rows = []
    for layer in LAYERS:
        moves = "wall_s@" + _LAYER_HOME[layer]
        rows += [
            (f"{layer}.self_s", "s", "lower", moves),
            (f"{layer}.share", "fraction", "lower", moves),
            (f"{layer}.calls", "count", "lower", moves),
            (f"{layer}.us_per_call", "us", "lower", moves),
        ]
    rows += [
        ("core.events", "count", "lower", "wall_s@dense_cell"),
        ("core.us_per_event", "us", "lower", "wall_s@dense_cell"),
        ("core.events_pooled", "count", "higher", "wall_s@dense_cell"),
        ("core.heap_compactions", "count", "lower", "wall_s@dense_cell"),
        ("mobility.position_evals", "count", "lower", "wall_s@paper_point"),
        ("mobility.segment_refreshes", "count", "lower", "wall_s@paper_point"),
        ("phy.transmissions", "count", "lower", "wall_s@wide_field"),
        ("phy.arrivals", "count", "lower", "wall_s@wide_field"),
        ("phy.arrivals_per_tx", "count", "lower", "wall_s@wide_field"),
        ("phy.batch_ratio", "fraction", "higher", "wall_s@wide_field"),
        ("phy.fanout_hit_ratio", "fraction", "higher", "wall_s@paper_point"),
        ("phy.grid_rebuilds", "count", "lower", "wall_s@wide_field"),
        ("phy.grid_incremental_updates", "count", "lower", "wall_s@wide_field"),
        ("phy.us_per_arrival", "us", "lower", "wall_s@wide_field"),
        ("mac.timer_events", "count", "lower", "wall_s@dense_cell"),
        ("mac.timer_coalescing_ratio", "fraction", "higher", "wall_s@dense_cell"),
        ("mac.edge_suppression_ratio", "fraction", "higher", "wall_s@dense_cell"),
        ("mac.collisions", "count", "lower", "wall_s@dense_cell"),
        ("mac.overhead_frames", "count", "lower", "wall_s@dense_cell"),
        ("mac.ifq_drops", "count", "lower", "wall_s@dense_cell"),
        ("mac.retry_drops", "count", "lower", "wall_s@dense_cell"),
        ("routing.control_packets", "count", "lower", "wall_s@table_driven"),
        ("routing.control_bytes", "bytes", "lower", "wall_s@table_driven"),
        ("routing.no_route_drops", "count", "lower", "wall_s@table_driven"),
        ("routing.us_per_control_packet", "us", "lower", "wall_s@table_driven"),
        ("traffic.offered", "count", "higher", NONE),
        ("stats.delivered", "count", "higher", NONE),
        ("stats.pdr", "fraction", "higher", NONE),
        ("stats.avg_delay_ms", "ms", "lower", NONE),
        ("stats.digest_match", "bool", "higher", NONE),
        ("stats.rep_digest_stable", "bool", "higher", NONE),
        ("trace.overhead_ratio", "ratio", "lower", NONE),
        ("trace.span_coverage", "fraction", "higher", NONE),
        ("trace.digest_match", "bool", "higher", NONE),
        ("scenario.points", "count", "higher", "sim_s_per_s@figure_sweep"),
        ("scenario.points_per_s", "1/s", "higher", "sim_s_per_s@figure_sweep"),
        ("scenario.inline_sweep_s", "s", "lower", "wall_s@figure_sweep"),
        ("scenario.pool_speedup", "ratio", "higher", "wall_s@figure_sweep"),
        ("scenario.pool_efficiency", "fraction", "higher", "wall_s@figure_sweep"),
        ("scenario.overhead_ms_per_point", "ms", "lower", "wall_s@figure_sweep"),
        ("scenario.cached_sweep_ms_p50", "ms", "lower", "wall_s@figure_sweep"),
        ("scenario.cached_sweep_ms_p90", "ms", "lower", "wall_s@figure_sweep"),
        ("scenario.pool_vs_inline_identical", "bool", "higher", NONE),
        ("fabric.store_put_ms_p50", "ms", "lower", "wall_s@figure_sweep"),
        ("fabric.store_get_ms_p50", "ms", "lower", "wall_s@figure_sweep"),
        ("fabric.store_bytes_per_point", "bytes", "lower", "wall_s@figure_sweep"),
        ("fabric.cold_sweep_s", "s", "lower", "wall_s@figure_sweep"),
        ("fabric.overhead_ms_per_point", "ms", "lower", "wall_s@figure_sweep"),
        ("fabric.peer_cache_sweep_ms_p50", "ms", "lower", "wall_s@figure_sweep"),
        ("fabric.http_cached_sweep_ms_p50", "ms", "lower", "wall_s@figure_sweep"),
        ("fabric.http_cached_sweep_ms_p90", "ms", "lower", "wall_s@figure_sweep"),
        ("fabric.leases_issued", "count", "lower", "wall_s@figure_sweep"),
        ("fabric.leases_reassigned", "count", "lower", NONE),
        ("fabric.fallback_points", "count", "lower", NONE),
    ]
    return tuple(rows)


#: (name, unit, better, moves). ``moves`` is ``<end-to-end metric>@<workload>``:
#: the pairing an improvement of this number should show up in, or "none".
PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WORKLOAD_WHY[w]} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _moves in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
