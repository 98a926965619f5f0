"""Command-line interface: run simulations without writing Python.

Examples::

    python -m repro run --protocol aodv --nodes 50 --duration 300
    python -m repro compare --protocols dsdv dsr aodv --pause 0
    python -m repro sweep --param pause_time --values 0 30 120 \\
        --protocols dsdv aodv --replications 3 --metric pdr
    python -m repro protocols
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from .analysis.tables import render_kv_table, render_series_table
from .core.errors import ConfigurationError
from .faults.plan import FaultPlanConfig
from .scenario import MOBILITY_MODELS, PROTOCOLS, ScenarioConfig, run_scenario, run_sweep
from .scenario.build import build_scenario
from .scenario.io import load_config, read_json, save_config, sweep_to_csv

__all__ = ["main", "build_parser"]


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nodes", type=int, default=50, help="node count (default 50)")
    p.add_argument(
        "--field", type=float, nargs=2, default=(1500.0, 300.0),
        metavar=("W", "H"), help="field size in meters (default 1500 300)",
    )
    p.add_argument("--duration", type=float, default=300.0, help="simulated seconds")
    p.add_argument("--sources", type=int, default=10, help="CBR connection count")
    p.add_argument("--rate", type=float, default=4.0, help="packets/s per source")
    p.add_argument("--packet-size", type=int, default=64, help="payload bytes")
    p.add_argument("--speed", type=float, default=20.0, help="max speed m/s")
    p.add_argument("--pause", type=float, default=0.0, help="waypoint pause s")
    p.add_argument(
        "--mobility", default="waypoint",
        choices=MOBILITY_MODELS,
    )
    p.add_argument("--mac", default="dcf", choices=["dcf", "ideal"])
    p.add_argument("--no-rtscts", action="store_true", help="disable RTS/CTS")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--placement", default="uniform", choices=["uniform", "clusters"],
        help="static node layout; 'clusters' packs nodes into "
             "radio-disjoint groups separated by --cluster-gap",
    )
    p.add_argument("--clusters", type=int, default=4,
                   help="cluster count for --placement clusters")
    p.add_argument("--cluster-gap", type=float, default=700.0,
                   help="empty metres between clusters (default 700, "
                        "wider than the 2 Mb/s carrier-sense range)")
    p.add_argument("--faults", metavar="JSON",
                   help="fault plan file (FaultPlanConfig fields, e.g. "
                        '{"churn_rate": 0.01, "link_loss": 0.05})')
    p.add_argument("--config", metavar="JSON",
                   help="load the scenario from a JSON file (other scenario "
                        "flags are ignored; --protocol still applies)")
    p.add_argument("--save-config", metavar="JSON",
                   help="write the effective scenario to a JSON file")


def _config_from(args, protocol: str) -> ScenarioConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config).with_(protocol=protocol)
    else:
        cfg = _config_from_flags(args, protocol)
    if getattr(args, "faults", None):
        plan = read_json(args.faults, "fault plan")
        cfg = cfg.with_(faults=FaultPlanConfig.from_dict(plan))
    if getattr(args, "save_config", None):
        save_config(cfg, args.save_config)
    return cfg


def _config_from_flags(args, protocol: str) -> ScenarioConfig:
    return ScenarioConfig(
        protocol=protocol,
        n_nodes=args.nodes,
        field_size=tuple(args.field),
        duration=args.duration,
        n_connections=args.sources,
        rate=args.rate,
        packet_size=args.packet_size,
        max_speed=args.speed,
        pause_time=args.pause,
        mobility=args.mobility,
        mac=args.mac,
        use_rtscts=not args.no_rtscts,
        traffic_start_window=(0.0, min(30.0, args.duration / 5.0)),
        seed=args.seed,
        placement=args.placement,
        n_clusters=args.clusters,
        cluster_gap=args.cluster_gap,
    )


def _summary_pairs(s) -> dict:
    pairs = {
        "packets sent": s.data_sent,
        "packets delivered": s.data_received,
        "packet delivery ratio": round(s.pdr, 4),
        "avg end-to-end delay (ms)": round(s.avg_delay * 1000, 3),
        "95th pct delay (ms)": round(s.p95_delay * 1000, 3),
        "routing overhead (pkts)": s.routing_overhead_packets,
        "normalized routing load": round(s.normalized_routing_load, 4),
        "normalized MAC load": round(s.normalized_mac_load, 3),
        "throughput (kb/s)": round(s.throughput_bps / 1000, 2),
        "avg path length (links)": round(s.avg_hops + 1, 2),
        "drops: no route / buffer / ifq / retry": (
            f"{s.drops_no_route} / {s.drops_buffer} / "
            f"{s.drops_ifq} / {s.drops_retry}"
        ),
    }
    if s.fault_crashes or s.fault_packets_lost or s.fault_downtime:
        pairs["fault crashes"] = s.fault_crashes
        pairs["fault downtime (s)"] = round(s.fault_downtime, 1)
        pairs["fault recovery latency (s)"] = round(s.fault_recovery_latency, 1)
        pairs["packets lost to faults"] = s.fault_packets_lost
    return pairs


def _flight_pairs(flight: dict) -> dict:
    """Conservation-report rows for the run/why tables."""
    pairs = {
        "packets offered": flight.get("offered", 0),
        "delivered": flight.get("delivered", 0),
        "in flight at end": flight.get("in_flight", 0),
        "unaccounted (taxonomy leaks)": flight.get("unaccounted", 0),
    }
    for reason, count in sorted(
        (flight.get("drops_by_reason") or {}).items()
    ):
        pairs[f"dropped: {reason}"] = count
    pairs["conserved"] = "yes" if flight.get("conserved") else "NO"
    return pairs


def _perf_pairs(perf: dict) -> dict:
    hits = perf.get("fanout_cache_hits", 0)
    misses = perf.get("fanout_cache_misses", 0)
    total = hits + misses
    pairs = dict(perf)
    pairs["fanout hit ratio"] = round(hits / total, 3) if total else 0.0
    if resource is not None:
        # ru_maxrss is in KiB on Linux, in bytes on macOS.
        scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale
        pairs["peak RSS (MB)"] = round(peak, 1)
    return pairs


def cmd_run(args) -> int:
    cfg = _config_from(args, args.protocol)
    if args.profile or args.profile_out:
        cfg = cfg.with_(profile=True)
    if args.flight or args.flight_trace or args.flight_report:
        cfg = cfg.with_(flight=True, flight_trace=bool(args.flight_trace))
    scenario = build_scenario(cfg)
    summary = scenario.run()
    print(render_kv_table(f"{args.protocol.upper()} results", _summary_pairs(summary)))
    if args.perf and summary.perf:
        print(render_kv_table("Engine counters", _perf_pairs(summary.perf)))
    if args.profile and summary.profile:
        from .obs.report import render_profile_table

        print(render_profile_table(summary.profile))
    if args.profile_out:
        with open(args.profile_out, "w") as fh:
            json.dump(summary.profile, fh, indent=2)
            fh.write("\n")
        print(f"[wrote {args.profile_out}]")
    flight = summary.flight
    if flight:
        print(render_kv_table("Packet conservation", _flight_pairs(flight)))
        if args.flight_trace:
            from .obs.flight import write_flight_jsonl

            write_flight_jsonl(flight, args.flight_trace)
            print(
                f"[wrote {len(flight.get('events', ()))} flight event(s) "
                f"to {args.flight_trace}]"
            )
        if args.flight_report:
            report = {
                k: v for k, v in flight.items()
                if k not in ("events", "sample")
            }
            with open(args.flight_report, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"[wrote {args.flight_report}]")
        if not flight.get("conserved"):
            print(
                "[WARNING: packet conservation violated — "
                "see 'repro obs why']",
                file=sys.stderr,
            )
    return 0


def cmd_compare(args) -> int:
    rows: dict = {}
    for proto in args.protocols:
        cfg = _config_from(args, proto)
        s = run_scenario(cfg)
        for key, value in _summary_pairs(s).items():
            rows.setdefault(key, []).append(value)
    print(
        render_series_table(
            "Protocol comparison", "metric \\ protocol", args.protocols, rows
        )
    )
    return 0


def cmd_sweep(args) -> int:
    base = _config_from(args, args.protocols[0])
    values = [float(v) if "." in v or args.param != "n_nodes" else int(v)
              for v in args.values]
    if args.param in ("n_nodes", "n_connections"):
        values = [int(v) for v in values]
    result = run_sweep(
        base,
        args.param,
        values,
        args.protocols,
        replications=args.replications,
        processes=args.processes,
        job_timeout=args.timeout,
        max_retries=args.retries,
        progress=args.progress,
        fabric=args.broker,
    )
    means = {p: result.series(p, args.metric) for p in args.protocols}
    cis = {
        p: [result.estimate(p, x, args.metric).half_width for x in values]
        for p in args.protocols
    }
    print(
        render_series_table(
            f"{args.metric} vs {args.param}", args.param, values, means, ci=cis
        )
    )
    print(
        f"[executor: {result.manifest['workers']} worker(s), "
        f"cache {result.cache_hits} hit(s) / {result.cache_misses} miss(es)]"
    )
    if result.fabric:
        fab = result.fabric
        if fab.get("connected"):
            print(
                f"[fabric {fab['broker']}: {fab.get('points_executed', 0)} "
                f"executed on fleet, {fab.get('results_from_peer_cache', 0)} "
                f"from peer cache, {fab.get('leases_reassigned', 0)} lease(s) "
                f"reassigned, {fab.get('fallback_points', 0)} run locally]"
            )
        else:
            print(
                f"[fabric {fab['broker']}: unreachable, ran on the local pool]"
            )
    for failure in result.failures:
        print(
            f"[FAILED point #{failure.index} "
            f"({failure.config.protocol}, seed {failure.config.seed}, "
            f"rep {failure.config.replication}): {failure.kind} after "
            f"{failure.attempts} attempt(s) — {failure.error}]",
            file=sys.stderr,
        )
    if args.csv:
        sweep_to_csv(
            result, args.csv,
            include_perf=args.perf, include_drops=args.drops,
        )
        print(f"[wrote {args.csv}]")
    if result.manifest_path:
        print(f"[manifest: {result.manifest_path}]")
    return 1 if result.failures else 0


def cmd_obs_report(args) -> int:
    """Render a manifest.json or profile JSON as a table."""
    from .obs.report import render_manifest_report, render_profile_table

    with open(args.path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        print(f"error: {args.path} is not an obs artifact", file=sys.stderr)
        return 1
    # Either marker identifies a manifest — old or trimmed manifests
    # may carry only one of them (the renderer defaults the rest).
    if "sweep_key" in data or "jobs_total" in data:
        print(render_manifest_report(data))
        return 0
    # Profile dumps map span path -> {calls, wall_s, self_s}.
    if all(isinstance(v, dict) and "calls" in v for v in data.values()):
        print(render_profile_table(data, title=f"Profile: {args.path}"))
        return 0
    print(
        f"error: {args.path} is neither a sweep manifest nor a profile dump",
        file=sys.stderr,
    )
    return 1


def cmd_obs_trace(args) -> int:
    """Convert a flight JSONL into Chrome trace_event JSON."""
    from .obs.flight import flight_to_chrome, load_flight_jsonl

    flight = load_flight_jsonl(args.path)
    chrome = flight_to_chrome(flight)
    with open(args.out, "w") as fh:
        json.dump(chrome, fh)
        fh.write("\n")
    n = sum(1 for e in chrome["traceEvents"] if e.get("ph") == "i")
    print(
        f"[wrote {n} event(s) to {args.out} — open in chrome://tracing "
        f"or https://ui.perfetto.dev]"
    )
    return 0


def cmd_obs_why(args) -> int:
    """Conservation report: where did every offered packet end up?

    Accepts either a flight JSONL (from ``repro run --flight-trace``)
    or a scenario config JSON, which is re-run with the flight recorder
    on. Exit status 1 when the ledger does not balance.
    """
    try:
        whole = json.loads(Path(args.path).read_text())
    except json.JSONDecodeError:
        whole = None  # multi-line JSONL; handled below
    if isinstance(whole, dict) and "protocol" in whole:
        cfg = load_config(args.path).with_(flight=True)
        flight = run_scenario(cfg).flight or {}
    elif isinstance(whole, dict) and "offered" in whole:
        flight = whole  # an already-extracted report
    else:
        from .obs.flight import load_flight_jsonl

        flight = load_flight_jsonl(args.path)
    if "offered" not in flight:
        print(
            f"error: {args.path} has no conservation report "
            "(flight JSONL, flight-report JSON, or scenario config expected)",
            file=sys.stderr,
        )
        return 1
    conserved = bool(flight.get("conserved"))
    if args.json:
        report = {
            k: v for k, v in flight.items() if k not in ("events", "sample")
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_kv_table("Packet conservation", _flight_pairs(flight)))
        drops = sum((flight.get("drops_by_reason") or {}).values())
        print(
            f"[identity: {flight.get('offered', 0)} offered == "
            f"{flight.get('delivered', 0)} delivered + {drops} dropped + "
            f"{flight.get('in_flight', 0)} in flight"
            + ("]" if conserved else
               f" + {flight.get('unaccounted', 0)} UNACCOUNTED]")
        )
    return 0 if conserved else 1


def cmd_serve(args) -> int:
    """Run a fabric broker (and optionally a local worker fleet)."""
    import asyncio
    import signal
    import subprocess

    from .fabric.broker import Broker

    broker = Broker(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        lease_ttl=args.lease_ttl,
        job_timeout=args.timeout,
        max_retries=args.retries,
    )

    async def _serve() -> int:
        await broker.start()
        address = f"{args.host}:{broker.port}"
        print(f"[fabric broker listening on {address}]", flush=True)
        workers: List[subprocess.Popen] = []
        for i in range(args.workers):
            workers.append(subprocess.Popen([
                sys.executable, "-m", "repro", "fabric-worker",
                "--broker", address, "--id", f"serve-w{i}",
            ]))
        if workers:
            print(f"[spawned {len(workers)} local worker(s)]", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            await stop.wait()
        finally:
            for proc in workers:
                proc.terminate()
            for proc in workers:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    proc.kill()
            await broker.stop()
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler fallback
        return 0


def cmd_fabric_worker(args) -> int:
    """Run one fabric worker against a broker until told to stop."""
    from .fabric.worker import run_worker

    jobs = run_worker(
        args.broker,
        worker_id=args.id,
        max_jobs=args.max_jobs,
        chaos_sleep=args.chaos_sleep,
    )
    print(f"[worker done: {jobs} job(s) executed]", file=sys.stderr)
    return 0


def cmd_protocols(_args) -> int:
    info = {
        "dsdv": "proactive distance vector (Perkins & Bhagwat)",
        "dsr": "reactive source routing with caching (Johnson & Maltz)",
        "aodv": "reactive distance vector, RFC 3561 (Perkins et al.)",
        "paodv": "AODV + signal-strength preemptive maintenance",
        "cbrp": "cluster-based routing with pruned floods",
        "olsr": "proactive link state with MPRs, RFC 3626 (extension)",
        "oracle": "global-knowledge shortest path baseline",
    }
    print(render_kv_table("Available protocols", info))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="manetsim: MANET routing-protocol comparison harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation")
    p_run.add_argument("--protocol", default="aodv", choices=PROTOCOLS)
    p_run.add_argument("--perf", action="store_true",
                       help="also print hot-path engine counters")
    p_run.add_argument("--profile", action="store_true",
                       help="time the run by layer and print a span table")
    p_run.add_argument("--profile-out", metavar="JSON",
                       help="write the span profile to a JSON file "
                            "(implies profiling; view with 'repro obs report')")
    p_run.add_argument("--flight", action="store_true",
                       help="run the packet flight recorder and print the "
                            "conservation ledger (offered == delivered + "
                            "drops-by-reason + in-flight)")
    p_run.add_argument("--flight-trace", metavar="JSONL",
                       help="record the per-packet causal event trace and "
                            "write it as flight JSONL (implies --flight; "
                            "convert with 'repro obs trace'; sample with "
                            "MANETSIM_TRACE_SAMPLE=N)")
    p_run.add_argument("--flight-report", metavar="JSON",
                       help="write the conservation report as JSON "
                            "(implies --flight; inspect with "
                            "'repro obs why')")
    _add_scenario_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="same scenario, several protocols")
    p_cmp.add_argument(
        "--protocols", nargs="+", default=["dsdv", "dsr", "aodv"],
        choices=PROTOCOLS,
    )
    _add_scenario_args(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_swp = sub.add_parser("sweep", help="sweep one parameter")
    p_swp.add_argument("--param", required=True,
                       help="ScenarioConfig field, e.g. pause_time")
    p_swp.add_argument("--values", nargs="+", required=True)
    p_swp.add_argument(
        "--protocols", nargs="+", default=["aodv"], choices=PROTOCOLS
    )
    p_swp.add_argument("--replications", type=int, default=1)
    p_swp.add_argument("--processes", type=int, default=None)
    p_swp.add_argument("--metric", default="pdr",
                       choices=["pdr", "avg_delay", "nrl", "mac_load",
                                "overhead_pkts", "throughput_bps", "avg_hops"])
    p_swp.add_argument("--csv", metavar="PATH",
                       help="also write every replication's metrics to CSV")
    p_swp.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-job wall-clock timeout in seconds "
                            "(default: MANETSIM_JOB_TIMEOUT or none)")
    p_swp.add_argument("--retries", type=int, default=None, metavar="N",
                       help="extra attempts per failed job "
                            "(default: MANETSIM_JOB_RETRIES or 2)")
    p_swp.add_argument("--progress", action="store_true",
                       help="show a single-line progress display on stderr "
                            "(done/total, failures, jobs/s, ETA)")
    p_swp.add_argument("--perf", action="store_true",
                       help="include perf-counter and profile columns in "
                            "the --csv output")
    p_swp.add_argument("--drops", action="store_true",
                       help="include per-reason drop columns "
                            "(drop_<reason>) in the --csv output")
    p_swp.add_argument("--broker", metavar="HOST:PORT", default=None,
                       help="dispatch cache misses to a repro.fabric broker "
                            "(see 'repro serve'); unreachable brokers fall "
                            "back to the local pool with a warning")
    _add_scenario_args(p_swp)
    p_swp.set_defaults(func=cmd_sweep)

    p_srv = sub.add_parser(
        "serve",
        help="run a sweep-fabric broker (accepts workers, sweep clients, "
             "and HTTP POST /sweep scenario JSON)",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=7653,
                       help="TCP port (0 picks a free one; default 7653)")
    p_srv.add_argument("--workers", type=int, default=0, metavar="N",
                       help="also spawn N local worker subprocesses")
    p_srv.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result-store root shared with local sweeps "
                            "(default .manetsim-cache/)")
    p_srv.add_argument("--lease-ttl", type=float, default=10.0, metavar="S",
                       help="seconds before a silent lease is reassigned")
    p_srv.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-job wall-clock timeout enforced by workers")
    p_srv.add_argument("--retries", type=int, default=2, metavar="N",
                       help="worker-reported failure budget per point")
    p_srv.set_defaults(func=cmd_serve)

    p_fw = sub.add_parser(
        "fabric-worker", help="run one leased sweep worker against a broker"
    )
    p_fw.add_argument("--broker", required=True, metavar="HOST:PORT")
    p_fw.add_argument("--id", default=None, help="worker id (default: pid)")
    p_fw.add_argument("--max-jobs", type=int, default=None, metavar="N",
                      help="exit after N jobs (default: run forever)")
    p_fw.add_argument("--chaos-sleep", type=float, default=0.0, metavar="S",
                      help="sleep S seconds inside every job before running "
                           "it (test affordance: widens the mid-lease "
                           "kill window for chaos drills)")
    p_fw.set_defaults(func=cmd_fabric_worker)

    p_ls = sub.add_parser("protocols", help="list available protocols")
    p_ls.set_defaults(func=cmd_protocols)

    p_obs = sub.add_parser("obs", help="observability artifact tools")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_rep = obs_sub.add_parser(
        "report", help="render a sweep manifest.json or profile JSON"
    )
    p_rep.add_argument("path", help="path to manifest.json or a profile dump")
    p_rep.set_defaults(func=cmd_obs_report)
    p_trc = obs_sub.add_parser(
        "trace",
        help="convert a flight JSONL (repro run --flight-trace) to "
             "Chrome trace_event JSON",
    )
    p_trc.add_argument("path", help="flight JSONL input")
    p_trc.add_argument("-o", "--out", required=True, metavar="JSON",
                       help="Chrome trace output path")
    p_trc.set_defaults(func=cmd_obs_trace)
    p_why = obs_sub.add_parser(
        "why",
        help="packet conservation report: where every offered packet "
             "ended up (exit 1 if the ledger does not balance)",
    )
    p_why.add_argument("path",
                       help="flight JSONL, flight-report JSON, or a "
                            "scenario config JSON to (re-)run with the "
                            "recorder on")
    p_why.add_argument("--json", action="store_true",
                       help="print the report as JSON instead of a table")
    p_why.set_defaults(func=cmd_obs_why)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        # A refused config value is a usage error, reported like argparse's.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
