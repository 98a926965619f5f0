#!/usr/bin/env python3
"""manetsim's benchmark: five workloads, end-to-end metrics, a per-layer ledger.

    python benchmarks/perf/run.py                      # everything, both passes
    python benchmarks/perf/run.py --workload dense_cell --trace 0 --seed 7

Closed loop, one driver: this process starts fresh child processes
(``child.py``) one after the other and waits for each, so at most two
processes are busy (the ``figure_sweep`` pool). The untraced pass gives
``--reps`` processes an equal share of ``--seconds``; each sets up once and
then repeats the workload, and the end-to-end times are built from the
fastest sample of every timed region. The traced pass runs the workload
plain and under ``trace.py`` and reports the per-layer metrics. With one
workload and one pass selected, the last line of standard output is the
JSON object the benchmark contract asks for. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

from metrics import END_TO_END, PER_LAYER, RUN_SECONDS  # noqa: E402
from trace import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Value of a per-layer metric that does not apply to the workload (the
#: fabric on a single simulation, spans on the sweep) or was not checked.
NOT_APPLICABLE = -1

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


class ChildFailed(RuntimeError):
    """A repetition process died; the benchmark cannot report a result."""


def engine_knobs() -> dict:
    """The ``MANETSIM_*`` variables of this environment (children never see them)."""
    return {k: v for k, v in os.environ.items() if k.startswith("MANETSIM_")}


def child_env() -> dict:
    """The children's environment: engine knobs scrubbed, ``repro`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MANETSIM_")}
    # Fabric workers are started as ``python -m repro``.
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
    return env


def spawn(workload: str, seed: int, trace: int, smoke: bool, seconds: float) -> dict:
    """One fresh process repeating the workload for *seconds*; what it printed."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--seconds", repr(seconds)]
    if smoke:
        cmd.append("--smoke")
    cmd += ["--t0", repr(time.time())]
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise ChildFailed(f"{workload}: child exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


# ------------------------------------------------------------ correctness


def operations(children: list) -> tuple:
    """``(attempted, failed, stable)`` over every pass of *children*.

    An operation is one scenario run or one sweep point. It fails when
    it is outside its workload's sanity band or came back as a failure
    record, and when its digest differs from the same operation's in
    the very first pass: seeded runs are bit-reproducible.
    """
    first = {op["label"]: op["digest"] for op in children[0]["passes"][0]["ops"]}
    attempted = failed = 0
    stable = True
    for child in children:
        for one_pass in child["passes"]:
            for op in one_pass["ops"]:
                attempted += 1
                same = first.get(op["label"], op["digest"]) == op["digest"]
                stable = stable and same
                if op["error"] or not same:
                    failed += 1
                    print(f"FAILED {op['label']}: "
                          f"{op['error'] or 'digest differs between runs'}", file=sys.stderr)
    return attempted, failed, stable


def fastest(children: list, column: int) -> float:
    """Sum over timed regions of each region's fastest sample.

    Co-tenants of the host only ever add time, so the minimum is the
    estimate of the undisturbed cost; taking it per region (per scenario
    of ``paper_point``) lets a disturbed scenario of one pass be covered
    by the same scenario of another. *column* 0 is wall, 1 is CPU.
    """
    best: dict = {}
    for child in children:
        for one_pass in child["passes"]:
            for label, sample in one_pass["chunks"].items():
                best[label] = min(best.get(label, sample[column]), sample[column])
    return sum(best.values())


def golden_match(workload: str, rep: dict, seed: int, smoke: bool, update: bool) -> int:
    """1 when *rep*'s digests equal the recorded ones, 0 when not, -1 unchecked."""
    if seed != 1 or smoke:
        print(f"golden digests: skipped for {workload} (recorded for --seed 1, full size)")
        return NOT_APPLICABLE
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    ops = rep["passes"][0]["ops"]
    seen = {"digests": {op["label"]: op["digest"] for op in ops if op["digest"]},
            "events": sum(op.get("events", 0) for op in ops)}
    if update:
        golden[workload] = seen
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"golden digests: recorded {workload}")
        return 1
    want = golden.get(workload)
    if want is None:
        print(f"golden digests: none recorded for {workload}")
        return NOT_APPLICABLE
    if want["events"] != seen["events"]:
        print(f"golden: {workload} core.events {want['events']} -> {seen['events']} "
              "(results may still be identical)")
    if want["digests"] == seen["digests"]:
        return 1
    print(f"\n*** GOLDEN MISMATCH on {workload}: simulated results changed. ***\n"
          "*** A behaviour-changing change re-records them: --update-golden. ***\n")
    return 0


# ---------------------------------------------------------------- passes


def untraced_pass(workload: str, seed: int, seconds: float, processes: int,
                  smoke: bool) -> dict:
    """*processes* fresh processes share *seconds*; the end-to-end metrics.

    A process stops when less than half a repetition of its share is left;
    what it leaves unused, or overran by, goes to the processes after it.
    """
    children = []
    deadline = time.monotonic() + seconds
    for left in range(processes, 0, -1):
        share = max(deadline - time.monotonic(), 0.0) / left
        children.append(spawn(workload, seed, 0, smoke, share))
    sim_s = children[0]["sim_s"]
    # Each process's own estimate: the spread compare.py judges noise by.
    own_wall = [fastest([c], 0) for c in children]
    per_process = {
        "setup_s": [c["setup_s"] for c in children],
        "wall_s": own_wall,
        "cpu_s": [fastest([c], 1) for c in children],
        "sim_s_per_s": [sim_s / wall for wall in own_wall],
        "peak_rss_mb": [c["peak_rss_mb"] for c in children],
    }
    wall_s = fastest(children, 0)
    value = {
        "setup_s": statistics.median(per_process["setup_s"]),
        "wall_s": wall_s,
        "cpu_s": fastest(children, 1),
        "sim_s_per_s": sim_s / wall_s,
        "peak_rss_mb": statistics.median(per_process["peak_rss_mb"]),
    }
    attempted, failed, _stable = operations(children)
    return {
        "processes": processes, "passes": sum(len(c["passes"]) for c in children),
        "attempted": attempted, "failed": failed, "failed_share": failed / attempted,
        "metrics": {name: {"value": value[name], "min": min(own), "max": max(own),
                           "values": own, "unit": UNITS[name]}
                    for name, own in per_process.items()},
    }


def quantile(values: list, q: float) -> float:
    """The *q* quantile with ``(1 - q) * len`` samples beyond it."""
    return sorted(values)[max(0, math.ceil(q * len(values)) - 1)]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_metrics(rep: dict) -> dict:
    """Per-layer counts and ratios from a repetition's summaries and counters."""
    perf, summary = rep["perf"], rep["summary"]
    events = sum(op.get("events", 0) for op in rep["passes"][0]["ops"])
    tx = perf["fanout_cache_hits"] + perf["fanout_cache_misses"]
    arrivals = perf["phy_batch_arrivals"] + perf["phy_legacy_arrivals"]
    edges = perf["mac_edges_suppressed"] + perf["mac_edges_dispatched"]
    return {
        # A sweep's summaries do not carry the event count.
        "core.events": events or NOT_APPLICABLE,
        "core.us_per_event": ratio(fastest([rep], 0) * 1e6, events) or NOT_APPLICABLE,
        "core.events_pooled": perf["events_pooled"],
        "core.heap_compactions": perf["heap_compactions"],
        "mobility.position_evals": perf["batch_position_evals"] + perf["scalar_position_evals"],
        "mobility.segment_refreshes": perf["segment_refreshes"],
        "phy.transmissions": tx,
        "phy.arrivals": arrivals,
        "phy.arrivals_per_tx": ratio(arrivals, tx),
        "phy.batch_ratio": ratio(perf["phy_batch_arrivals"], arrivals),
        "phy.fanout_hit_ratio": ratio(perf["fanout_cache_hits"], tx),
        "phy.grid_rebuilds": perf["grid_rebuilds"],
        "phy.grid_incremental_updates": perf["grid_incremental_updates"],
        "mac.timer_events": perf["mac_timer_events"],
        "mac.timer_coalescing_ratio": ratio(
            perf["mac_timer_events"] - perf["mac_wheel_sentinels"], perf["mac_timer_events"]),
        "mac.edge_suppression_ratio": ratio(perf["mac_edges_suppressed"], edges),
        "mac.collisions": summary["mac_collisions"],
        "mac.overhead_frames": summary["mac_overhead_frames"],
        "mac.ifq_drops": summary["drops_ifq"],
        "mac.retry_drops": summary["drops_retry"],
        "routing.control_packets": summary["routing_overhead_packets"],
        "routing.control_bytes": summary["routing_overhead_bytes"],
        "routing.no_route_drops": summary["drops_no_route"],
        "traffic.offered": summary["data_sent"],
        "stats.delivered": summary["data_received"],
        "stats.pdr": ratio(summary["data_received"], summary["data_sent"]),
        "stats.avg_delay_ms": ratio(summary["delay_s"] * 1e3, summary["data_received"]),
    }


def span_metrics(plain: dict, traced: dict) -> dict:
    """The ledger of a simulation workload, and how far it can be trusted."""
    rows = traced["ledger"]
    total = sum(layer["self_s"] for row in rows for layer in row["layers"].values())
    out = {}
    for name in LAYERS:
        self_s = sum(row["layers"][name]["self_s"] for row in rows)
        calls = sum(row["layers"][name]["calls"] for row in rows)
        out[f"{name}.self_s"] = self_s
        out[f"{name}.share"] = ratio(self_s, total)
        out[f"{name}.calls"] = calls
        out[f"{name}.us_per_call"] = ratio(self_s * 1e6, calls)
    same = [(a["events"], a["digest"]) for a in plain["passes"][0]["ops"]] == \
           [(b["events"], b["digest"]) for b in traced["passes"][0]["ops"]]
    out["trace.overhead_ratio"] = fastest([traced], 0) / fastest([plain], 0)
    out["trace.span_coverage"] = (sum(row["covered_s"] for row in rows)
                                  / sum(row["wall_s"] for row in rows))
    out["trace.digest_match"] = int(same)
    return out


def sweep_metrics(pool: dict, ledger: dict) -> dict:
    """figure_sweep's layers: pool against inline, the store, the fabric."""
    n = ledger["points"]
    pool_s = fastest([pool], 0)
    speedup = ledger["inline_s"] / pool_s
    return {
        "scenario.points": n,
        "scenario.points_per_s": n / pool_s,
        "scenario.inline_sweep_s": ledger["inline_s"],
        "scenario.pool_speedup": speedup,
        "scenario.pool_efficiency": speedup / 2,
        "scenario.overhead_ms_per_point": (pool_s * 2 - ledger["inline_s"]) / n * 1e3,
        "scenario.cached_sweep_ms_p50": statistics.median(ledger["cached_ms"]),
        "scenario.cached_sweep_ms_p90": quantile(ledger["cached_ms"], 0.9),
        "fabric.store_put_ms_p50": statistics.median(ledger["store_put_ms"]),
        "fabric.store_get_ms_p50": statistics.median(ledger["store_get_ms"]),
        "fabric.store_bytes_per_point": ledger["store_bytes"] / n,
        "fabric.cold_sweep_s": ledger["fabric_cold_s"],
        "fabric.overhead_ms_per_point": (ledger["fabric_cold_s"] - pool_s) / n * 1e3,
        "fabric.peer_cache_sweep_ms_p50": statistics.median(ledger["peer_cache_ms"]),
        "fabric.http_cached_sweep_ms_p50": statistics.median(ledger["http_cached_ms"]),
        "fabric.http_cached_sweep_ms_p90": quantile(ledger["http_cached_ms"], 0.9),
        "fabric.leases_issued": ledger["leases_issued"],
        "fabric.leases_reassigned": ledger["leases_reassigned"],
        "fabric.fallback_points": ledger["fallback_points"],
    }


def traced_pass(workload: str, seed: int, smoke: bool, seconds: float,
                update_golden: bool) -> dict:
    """The workload plain and traced, half of *seconds* each; every per-layer metric."""
    plain = spawn(workload, seed, 0, smoke, seconds / 2)
    traced = spawn(workload, seed, 1, smoke, seconds / 2)
    values = dict.fromkeys((name for name, *_ in PER_LAYER), NOT_APPLICABLE)
    values.update(counter_metrics(plain))
    attempted, failed, stable = operations([plain, traced])
    if workload == "figure_sweep":
        values.update(sweep_metrics(plain, traced))
        # Pool, inline and fleet points carry the same labels, so "stable"
        # is exactly: all three computed the same summaries.
        values["scenario.pool_vs_inline_identical"] = int(stable)
    else:
        values.update(span_metrics(plain, traced))
        values["phy.us_per_arrival"] = ratio(values["phy.self_s"] * 1e6, values["phy.arrivals"])
        values["routing.us_per_control_packet"] = ratio(
            values["routing.self_s"] * 1e6, values["routing.control_packets"])
    values["stats.rep_digest_stable"] = int(stable)
    values["stats.digest_match"] = golden_match(workload, plain, seed, smoke, update_golden)
    return {
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in values.items()},
    }


# ------------------------------------------------------------------ output


def show(workload: str, title: str, result: dict) -> None:
    print(f"\n== {workload}: {title} "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for name, m in result["metrics"].items():
        value = m["value"]
        if value == NOT_APPLICABLE:
            text = "n/a"
        elif isinstance(value, int):
            text = str(value)
        else:
            text = f"{value:.6g}"
        spread = f"   per process {m['min']:.6g} .. {m['max']:.6g}" if "min" in m else ""
        print(f"{name:36s} {text:>12s} {m['unit']:9s}{spread}")
    if "failed_share" in result:
        print(f"{'failed_share':36s} {result['failed_share']:>12.6g} {'fraction':9s}")


def provenance() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "scrubbed_env": engine_knobs(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable; default: all five)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: untraced pass only, 1: traced pass only (default: both)")
    parser.add_argument("--no-trace", dest="trace", action="store_const", const=0,
                        help="same as --trace 0")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long one pass over a workload measures")
    parser.add_argument("--reps", type=int, default=3,
                        help="fresh processes the untraced pass divides --seconds among")
    parser.add_argument("--smoke", action="store_true",
                        help="one process, one repetition, a fifth of the size; "
                             "the numbers mean nothing")
    parser.add_argument("--out", type=Path, default=OUT / "result.json")
    parser.add_argument("--update-golden", action="store_true",
                        help="record the traced pass's digests in golden.json (--seed 1 only)")
    args = parser.parse_args()
    if args.smoke:
        args.reps = 1
    names = args.workload or list(WORKLOADS)
    passes = (0, 1) if args.trace is None else (args.trace,)
    if args.update_golden and 1 not in passes:
        parser.error("--update-golden records from the traced pass")

    record = {"seed": args.seed, "smoke": args.smoke, "seconds": args.seconds,
              **provenance(), "workloads": {}}
    failed = 0
    last = None
    try:
        for name in names:
            entry = record["workloads"][name] = {}
            if 0 in passes:
                last = entry["end_to_end"] = untraced_pass(
                    name, args.seed, args.seconds, args.reps, args.smoke)
                show(name, f"end to end, {last['passes']} repetitions in "
                           f"{last['processes']} processes", last)
                failed += last["failed"]
            if 1 in passes:
                last = entry["per_layer"] = traced_pass(
                    name, args.seed, args.smoke, args.seconds, args.update_golden)
                show(name, "per layer", last)
                failed += last["failed"]
    except ChildFailed as exc:
        print(f"benchmark broken: {exc}", file=sys.stderr)
        return 2
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nresult file: {args.out}")
    if len(names) == 1 and len(passes) == 1:
        print(json.dumps({
            "correct": failed == 0, "attempted": last["attempted"], "failed": last["failed"],
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in last["metrics"].items()},
        }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
