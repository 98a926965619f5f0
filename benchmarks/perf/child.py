"""One fresh process of one workload: set up once, then repeat the timed region.

``run.py`` starts this file several times per invocation. Each process
measures ``setup_s`` (process start to ready) and ``peak_rss_mb`` once,
then repeats the workload in-process until its share of ``--seconds`` is
used, timing every scenario run (or sweep) separately; ``run.py`` keeps
the fastest sample of each and does the arithmetic. The last line of
standard output is one JSON object.

``trace.py`` in this directory shadows the standard library's ``trace``
module for this process; nothing imported here uses that one.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE.parents[1] / "src"))

import workloads  # noqa: E402
from trace import Tracer, repro_entry_points  # noqa: E402

#: Raw spans written per scenario; the ledger rows cover all of them.
SPANS_HEAD = 5000

#: Cached-path repetitions: enough for a p90 with ten samples beyond it.
CACHED_REPEATS = 100
PEER_CACHE_REPEATS = 5

RUSAGE_BOTH = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)

SUMMARY_SUMS = (
    "data_sent", "data_received", "routing_overhead_packets",
    "routing_overhead_bytes", "mac_overhead_frames", "drops_no_route",
    "drops_ifq", "drops_retry", "mac_collisions",
)


def digest(summary) -> str:
    """sha256 of the canonical summary: results only, per-flow delays included."""
    fields = dataclasses.asdict(summary)
    for engine_side in ("perf", "profile", "flight"):
        fields.pop(engine_side, None)
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def fold(summaries) -> dict:
    """Sums of the result and engine counters the per-layer metrics derive from."""
    sums = {name: sum(getattr(s, name) for s in summaries) for name in SUMMARY_SUMS}
    sums["delay_s"] = sum(s.avg_delay * s.data_received for s in summaries)
    perf: dict = {}
    for s in summaries:
        for name, value in s.perf.items():
            perf[name] = perf.get(name, 0) + value
    return {"summary": sums, "perf": perf}


def cpu_seconds() -> float:
    """User + system CPU of this process and the children it has reaped."""
    return sum(usage.ru_utime + usage.ru_stime
               for usage in map(resource.getrusage, RUSAGE_BOTH))


def peak_rss_mb() -> float:
    """Largest resident set among this process and its reaped children."""
    return max(resource.getrusage(who).ru_maxrss for who in RUSAGE_BOTH) / 1024.0


def scratch_dir() -> Path:
    """A fresh directory for caches, stores and journals, inside the checkout."""
    OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))


def repeat(one_pass, deadline: float, once: bool) -> list:
    """Call *one_pass* while at least half of another call fits before *deadline*.

    Half, not whole: a process then overruns its share as often as it
    underruns it, ``run.py`` takes either out of the next process's share,
    and a workload whose repetition is close to half a share still gets
    its second sample.
    """
    passes = []
    began = time.time()
    while True:
        passes.append(one_pass())
        now = time.time()
        if once or now + 0.5 * (now - began) / len(passes) > deadline:
            return passes


# ------------------------------------------------------------ simulations


def run_simulations(name: str, seed: int, smoke: bool, t0: float, deadline: float,
                    traced: bool) -> dict:
    """Build and run the workload's scenarios; the timed regions are ``run()``.

    Scenarios are built one at a time because ``build_scenario`` rewinds
    process-wide uid counters: building all five first would give the
    later ones different uids than a standalone run. ``setup_s`` is
    therefore process start to the first scenario ready, plus the later
    builds of the first pass.
    """
    from repro.scenario.build import build_scenario

    configs = workloads.configs(name, seed, smoke)
    tracer = Tracer()
    setup = []
    first = {}

    def one_pass() -> dict:
        chunks, ops, marks, summaries = {}, [], [], []
        for cfg in configs:
            # Drop the previous repetition's scenario (cyclic garbage), so
            # every repetition starts from the heap a fresh process has
            # and does not pay for its predecessor inside the timed
            # region. The collector stays on throughout.
            scenario = None
            gc.collect()
            b0 = time.perf_counter()
            scenario = build_scenario(cfg)
            setup.append((time.time() - t0) if not setup else (time.perf_counter() - b0))
            lo = tracer.mark()
            c0, w0 = cpu_seconds(), time.perf_counter()
            summary = scenario.run()
            chunks[cfg.protocol] = (time.perf_counter() - w0, cpu_seconds() - c0)
            marks.append((lo, tracer.mark()))
            summaries.append(summary)
            ops.append({"label": cfg.protocol, "digest": digest(summary),
                        "events": scenario.sim.events_processed,
                        "error": workloads.band_error(name, summary, smoke)})
        if not first:
            first.update(fold(summaries), setup_s=sum(setup), peak_rss_mb=peak_rss_mb())
        return {"chunks": chunks, "ops": ops, "marks": marks}

    with tracer:  # wrappers go on before the first build and always come off
        if traced:
            tracer.install(*repro_entry_points())
        passes = repeat(one_pass, deadline, once=smoke)
    out = {"sim_s": sum(c.duration for c in configs), **first}
    if traced:
        # The least disturbed pass speaks for the layers.
        best = min(passes, key=lambda p: sum(wall for wall, _cpu in p["chunks"].values()))
        rows = [{"label": op["label"], "wall_s": best["chunks"][op["label"]][0],
                 **tracer.ledger(lo, hi), "spans": hi - lo,
                 "head": tracer.head(lo, min(SPANS_HEAD, hi - lo))}
                for op, (lo, hi) in zip(best["ops"], best["marks"])]
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{name}.json").write_text(json.dumps(
            {"workload": name, "seed": seed, "scenarios": rows}) + "\n")
        out["ledger"] = [{k: v for k, v in row.items() if k != "head"} for row in rows]
    for p in passes:
        del p["marks"]
    out["passes"] = passes
    return out


# ----------------------------------------------------------------- sweeps


def check_sweep(results, where: str, smoke: bool) -> tuple:
    """One operation per sweep point: ``(ops, summaries that came back)``.

    Points are labelled by index alone, so ``run.py`` compares the pool's,
    the inline run's and the fleet's digests of the same point.
    """
    from repro.scenario.executor import FailedRun

    ops, good = [], []
    for i, result in enumerate(results):
        if isinstance(result, FailedRun):
            ops.append({"label": f"point{i}", "digest": "",
                        "error": f"{where}: {result.kind}: {result.error}"})
            continue
        good.append(result)
        ops.append({"label": f"point{i}", "digest": digest(result),
                    "error": workloads.band_error("figure_sweep", result, smoke)})
    return ops, good


def expect(ops: list, label: str, got, want) -> None:
    """Record a failed operation when a sweep-level count is off."""
    if got != want:
        ops.append({"label": label, "digest": "", "error": f"got {got}, want {want}"})


def run_sweep(seed: int, smoke: bool, t0: float, deadline: float) -> dict:
    """Cold figure sweeps on a 2-process pool, each timed through ``run()``'s return."""
    from repro.scenario.executor import SweepExecutor

    configs = workloads.configs("figure_sweep", seed, smoke)
    tmp = scratch_dir()
    first = {}

    def one_pass() -> dict:
        # A fresh store and a fresh pool per pass: every `repro sweep` pays both.
        cache = tempfile.mkdtemp(dir=tmp)
        executor = SweepExecutor(processes=2, cache_dir=cache, use_cache=True)
        setup_s = time.time() - t0
        c0, w0 = cpu_seconds(), time.perf_counter()
        try:
            results = executor.run(configs)
            wall_s = time.perf_counter() - w0
        finally:
            executor.close()  # joins the workers, so their CPU is counted below
        cpu_s = cpu_seconds() - c0
        ops, summaries = check_sweep(results, "pool", smoke)
        expect(ops, "cold-store-misses", executor.last_cache_misses, len(configs))
        if not first:
            first.update(fold(summaries), setup_s=setup_s, peak_rss_mb=peak_rss_mb())
        shutil.rmtree(cache, ignore_errors=True)
        return {"chunks": {"sweep": (wall_s, cpu_s)}, "ops": ops}

    try:
        passes = repeat(one_pass, deadline, once=smoke)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"sim_s": sum(c.duration for c in configs), **first, "passes": passes}


def timed_ms(fn) -> float:
    w0 = time.perf_counter()
    fn()
    return (time.perf_counter() - w0) * 1e3


def sweep_ledger(seed: int, smoke: bool) -> dict:
    """figure_sweep's layers, timed from outside: inline, cached, store, fabric."""
    from repro.fabric.broker import BrokerThread
    from repro.fabric.store import ResultStore
    from repro.scenario.executor import SweepExecutor, config_cache_key
    from repro.scenario.io import config_to_dict

    configs = workloads.configs("figure_sweep", seed, smoke)
    n = len(configs)
    repeats = 3 if smoke else CACHED_REPEATS
    tmp = scratch_dir()
    ops: list = []
    out: dict = {"points": n}
    workers: list = []
    broker_thread = None
    try:
        # Same points without a pool: the gap to the pool run is dispatch,
        # pickling and scaling.
        inline = SweepExecutor(processes=1, cache_dir=str(tmp / "inline"), use_cache=True)
        w0 = time.perf_counter()
        results = inline.run(configs)
        out["inline_s"] = time.perf_counter() - w0
        inline_ops, summaries = check_sweep(results, "inline", smoke)
        ops += inline_ops

        # The same store by reads: every point is a hit.
        out["cached_ms"] = [timed_ms(lambda: inline.run(configs)) for _ in range(repeats)]
        expect(ops, "cached-hits", inline.last_cache_hits, n)

        store = ResultStore(tmp / "store")
        keys = [config_cache_key(c) for c in configs]
        out["store_put_ms"] = [timed_ms(lambda: store.put(k, s))
                               for k, s in zip(keys, summaries)]
        out["store_get_ms"] = [timed_ms(lambda: store.get(k)) for k in keys]
        files = [p for p in (tmp / "store").rglob("*") if p.is_file()]
        out["store_bytes"] = sum(p.stat().st_size for p in files)

        # The grid through the fabric: broker thread + two worker processes.
        broker_thread = BrokerThread(cache_dir=str(tmp / "fleet"))
        broker = broker_thread.start()
        for i in range(2):
            workers.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "fabric-worker",
                 "--broker", broker.address, "--id", f"bench-w{i}"],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
        give_up = time.monotonic() + 30.0
        while len(broker.workers) < 2 and time.monotonic() < give_up:
            time.sleep(0.02)

        def fabric_sweep(label: str):
            client = SweepExecutor(processes=2, cache_dir=str(tmp / label), use_cache=True)
            try:
                w0 = time.perf_counter()
                results = client.run(configs, fabric=broker.address)
                wall = time.perf_counter() - w0
            finally:
                client.close()
            ops.extend(check_sweep(results, label, smoke)[0])
            return wall, client.last_fabric or {}

        out["fabric_cold_s"], fab = fabric_sweep("fabric-cold")
        out["leases_issued"] = fab.get("fleet_counters", {}).get("leases_issued", 0)
        out["leases_reassigned"] = fab.get("leases_reassigned", 0)
        out["fallback_points"] = fab.get("fallback_points", 0)
        expect(ops, "fleet-executed", fab.get("points_executed"), n)

        # A client with an empty cache against the warm fleet store.
        out["peer_cache_ms"] = []
        for i in range(2 if smoke else PEER_CACHE_REPEATS):
            wall, fab = fabric_sweep(f"fabric-peer{i}")
            out["peer_cache_ms"].append(wall * 1e3)
            out["fallback_points"] += fab.get("fallback_points", 0)
            expect(ops, f"peer-cache-hits{i}", fab.get("results_from_peer_cache"), n)

        body = json.dumps({"configs": [config_to_dict(c) for c in configs]})
        out["http_cached_ms"] = [timed_ms(lambda: http_sweep(broker, body, n))
                                 for _ in range(repeats)]
    finally:
        for proc in workers:
            proc.terminate()
        for proc in workers:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if broker_thread is not None:
            broker_thread.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    out["passes"] = [{"chunks": {}, "ops": ops}]
    return out


def http_sweep(broker, body: str, points: int) -> None:
    """One ``POST /sweep`` on its own connection, read to the end."""
    import http.client

    conn = http.client.HTTPConnection(broker.host, broker.port, timeout=60.0)
    try:
        conn.request("POST", "/sweep", body, {"Content-Type": "application/json"})
        lines = conn.getresponse().read().splitlines()
    finally:
        conn.close()
    got = sum(1 for line in lines if json.loads(line).get("type") == "point")
    if got != points:
        raise RuntimeError(f"POST /sweep answered {got} of {points} points")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="one pass at a fifth of the size")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.time() just before this process was started")
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat the workload until this long after --t0")
    args = parser.parse_args()
    deadline = args.t0 + args.seconds
    if args.workload != "figure_sweep":
        result = run_simulations(args.workload, args.seed, args.smoke, args.t0, deadline,
                                 traced=bool(args.trace))
    elif args.trace:
        result = sweep_ledger(args.seed, args.smoke)
    else:
        result = run_sweep(args.seed, args.smoke, args.t0, deadline)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
