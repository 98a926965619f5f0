#!/usr/bin/env python
"""Fail when BENCH_kernel.json records a perf regression.

Reads a freshly generated ``BENCH_kernel.json`` (emitted by the
benchmark session hook in ``benchmarks/conftest.py``) and exits
non-zero if any benchmark's ``speedup_vs_seed`` fell below the floor.

The strict reading of the gate is "no bench slower than its recorded
baseline" (floor 1.0).  In practice the event-loop benches vary by
10-15% run-to-run on a loaded single-core runner even for untouched
code, so the default floor is 0.90: real regressions (a hot path made
>10% slower) still fail, while scheduler noise does not.  Benches in
the [floor, 1.0) band are printed as warnings so a slow drift is still
visible in the job log.

The gate also covers the engine's cache **hit ratios** when the bench
file records them (``hit_ratios``, emitted by the bench session hook):
a cache whose hit ratio dropped more than ``--ratio-drop`` (default
20%) below its recorded baseline fails the gate even if wall time is
still inside the noise floor — ratios decay before timings do, and
they are deterministic (fixed-seed probe scenario), so no noise
allowance is needed.  Alongside the position/fan-out cache ratios, the
DCF contention arena contributes ``mac_edge_suppression`` (the
fraction of medium edges proven no-ops and never dispatched into a
MAC); its decay means the arena is silently degenerating to per-node
dispatch.

With ``--manifest PATH`` the script instead validates a sweep
``manifest.json`` (local or fabric run) against the executor's
accounting invariants: ``jobs_total == jobs_executed +
jobs_from_cache``, ``jobs_failed == len(failures)``, and — when the
manifest records a fabric section — non-negative fleet counters with
``results_from_peer_cache <= jobs_from_cache``.  These must hold under
lease reassignment and worker death; a violation means a sweep point
was double-counted or silently lost, which is exactly what the fabric
exists to prevent.  Adding ``--expect-cached`` additionally requires
``jobs_executed == 0 and jobs_from_cache == jobs_total``: the manifest
of a sweep run a second time over the same store, which is how "re-running
is resuming" is gated.

With ``--conservation PATH`` the script validates a flight-recorder
report (``repro run --flight-report`` or ``repro obs why --json``)
against the packet-conservation identity: ``offered == delivered +
Σ drops_by_reason + in_flight`` with ``unaccounted == 0`` and the
report's own ``conserved`` verdict true.  An unbalanced ledger in CI
means a code path started discarding data packets without telling the
recorder — a taxonomy leak the drop-site meta-test should have caught.

With ``--profile PATH`` the script validates a span profile (``repro
run --profile-out``): each span's self time is folded into its
innermost layer, and ``mac`` and ``routing`` must both have booked
some. A profiler that charges DCF or routing work to the event loop or
the channel leaves one of them at zero.

Usage::

    python scripts/check_bench_regression.py [--floor 0.90]
        [--ratio-drop 0.20] [path]
    python scripts/check_bench_regression.py --manifest runs/manifest.json
        [--expect-cached]
    python scripts/check_bench_regression.py --conservation flight.json
    python scripts/check_bench_regression.py --profile profile.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def check_ratios(data: dict, max_drop: float) -> list:
    """Hit-ratio regressions: (name, ratio, baseline) triples."""
    failures = []
    for name, entry in sorted(data.get("hit_ratios", {}).items()):
        ratio = entry.get("ratio")
        baseline = entry.get("baseline")
        if ratio is None or not baseline:
            print(f"  skip  hit-ratio {name}: no baseline recorded")
            continue
        drop = 1.0 - ratio / baseline
        status = "FAIL" if drop > max_drop else "ok"
        if status == "FAIL":
            failures.append((name, ratio, baseline))
        print(
            f"  {status:<5} hit-ratio {name}: {ratio:.4f} "
            f"(baseline {baseline:.4f}, drop {max(drop, 0.0):.1%})"
        )
    return failures


def check(path: pathlib.Path, floor: float, ratio_drop: float) -> int:
    data = json.loads(path.read_text())
    benchmarks = data.get("benchmarks", {})
    if not benchmarks:
        print(f"error: no benchmarks recorded in {path}", file=sys.stderr)
        return 2

    failures = []
    warnings = []
    for name, entry in sorted(benchmarks.items()):
        speedup = entry.get("speedup_vs_seed")
        if speedup is None:
            print(f"  skip  {name}: no baseline recorded")
            continue
        status = "ok"
        if speedup < floor:
            failures.append((name, speedup))
            status = "FAIL"
        elif speedup < 1.0:
            warnings.append((name, speedup))
            status = "warn"
        print(f"  {status:<5} {name}: {speedup:.2f}x vs baseline")

    ratio_failures = check_ratios(data, ratio_drop)

    for name, speedup in warnings:
        print(
            f"warning: {name} at {speedup:.2f}x — below 1.0 but within "
            f"the {floor:.2f} noise floor"
        )
    if failures or ratio_failures:
        for name, speedup in failures:
            print(
                f"REGRESSION: {name} at {speedup:.2f}x "
                f"(floor {floor:.2f})",
                file=sys.stderr,
            )
        for name, ratio, baseline in ratio_failures:
            print(
                f"REGRESSION: {name} hit ratio at {ratio:.4f}, more than "
                f"{ratio_drop:.0%} below its baseline {baseline:.4f}",
                file=sys.stderr,
            )
        return 1
    print(f"all {len(benchmarks)} benchmarks at or above the floor")
    return 0


def check_manifest(path: pathlib.Path, expect_cached: bool = False) -> int:
    """Validate a sweep manifest's accounting invariants."""
    manifest = json.loads(path.read_text())
    problems = []

    def require(cond: bool, label: str) -> None:
        print(f"  {'ok' if cond else 'FAIL':<5} {label}")
        if not cond:
            problems.append(label)

    total = manifest.get("jobs_total", -1)
    executed = manifest.get("jobs_executed", -1)
    cached = manifest.get("jobs_from_cache", -1)
    require(
        total == executed + cached,
        f"jobs_total == jobs_executed + jobs_from_cache "
        f"({total} == {executed} + {cached})",
    )
    if expect_cached:
        require(
            executed == 0 and cached == total,
            f"re-run answered entirely from the store "
            f"({executed} executed, {cached} of {total} cached)",
        )
    require(
        manifest.get("jobs_failed", -1) == len(manifest.get("failures", ())),
        f"jobs_failed matches the failure list "
        f"({manifest.get('jobs_failed')} == "
        f"{len(manifest.get('failures', ()))})",
    )

    fabric = manifest.get("fabric")
    if fabric:
        counter_names = (
            "points_executed", "points_failed", "results_from_peer_cache",
            "leases_reassigned", "heartbeats_missed", "fallback_points",
        )
        for name in counter_names:
            value = fabric.get(name, -1)
            require(
                isinstance(value, int) and value >= 0,
                f"fabric.{name} present and non-negative ({value})",
            )
        require(
            fabric.get("results_from_peer_cache", 0) <= cached,
            f"fabric.results_from_peer_cache <= jobs_from_cache "
            f"({fabric.get('results_from_peer_cache', 0)} <= {cached})",
        )
        if fabric.get("connected"):
            require(
                fabric.get("points_executed", 0)
                + fabric.get("points_failed", 0)
                + fabric.get("results_from_peer_cache", 0)
                + fabric.get("fallback_points", 0)
                == fabric.get("points_sent", -1),
                "fabric points reconcile (executed + failed + peer-cache "
                "+ fallback == sent)",
            )
    else:
        print("  skip  no fabric section (local-pool run)")

    if problems:
        for label in problems:
            print(f"MANIFEST INVARIANT VIOLATED: {label}", file=sys.stderr)
        return 1
    print("manifest invariants hold")
    return 0


def check_conservation(path: pathlib.Path) -> int:
    """Validate a flight report's packet-conservation identity."""
    report = json.loads(path.read_text())
    problems = []

    def require(cond: bool, label: str) -> None:
        print(f"  {'ok' if cond else 'FAIL':<5} {label}")
        if not cond:
            problems.append(label)

    offered = report.get("offered", -1)
    delivered = report.get("delivered", -1)
    in_flight = report.get("in_flight", -1)
    unaccounted = report.get("unaccounted", -1)
    drops = report.get("drops_by_reason") or {}
    dropped = sum(drops.values())

    require(
        isinstance(offered, int) and offered > 0,
        f"offered load recorded ({offered} packets)",
    )
    require(
        all(isinstance(v, int) and v >= 0 for v in drops.values()),
        f"drop buckets are non-negative counts ({len(drops)} reason(s))",
    )
    require(
        in_flight >= 0 and delivered >= 0,
        f"delivered/in-flight non-negative ({delivered} / {in_flight})",
    )
    require(
        unaccounted == 0,
        f"unaccounted == 0 ({unaccounted})",
    )
    require(
        offered == delivered + dropped + in_flight,
        f"offered == delivered + dropped + in_flight "
        f"({offered} == {delivered} + {dropped} + {in_flight})",
    )
    require(
        report.get("conserved") is True,
        f"report's own verdict is conserved ({report.get('conserved')})",
    )

    if problems:
        for label in problems:
            print(f"CONSERVATION VIOLATED: {label}", file=sys.stderr)
        return 1
    print("packet conservation holds")
    return 0


def check_profile(path: pathlib.Path) -> int:
    """Require nonzero self time in the mac and routing layers."""
    layers: dict = {}
    for span, stat in json.loads(path.read_text()).items():
        layer = span.rsplit("/", 1)[-1]
        layers[layer] = layers.get(layer, 0.0) + float(stat.get("self_s", 0.0))
    total = sum(layers.values()) or 1.0
    for layer, self_s in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<10} {self_s:10.4f} s  {100.0 * self_s / total:5.1f} %")
    missing = [layer for layer in ("mac", "routing") if layers.get(layer, 0.0) <= 0.0]
    if missing:
        print(f"PROFILE MISATTRIBUTED: no self time in {missing}", file=sys.stderr)
        return 1
    print("mac and routing carry their own time")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "path",
        nargs="?",
        default="BENCH_kernel.json",
        type=pathlib.Path,
        help="bench results file (default: BENCH_kernel.json)",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=0.90,
        help="minimum acceptable speedup_vs_seed (default: 0.90)",
    )
    parser.add_argument(
        "--ratio-drop",
        type=float,
        default=0.20,
        help="maximum tolerated relative drop in any recorded cache "
             "hit ratio (default: 0.20 = 20%%)",
    )
    parser.add_argument(
        "--manifest",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="validate a sweep manifest.json's accounting invariants "
             "instead of checking bench timings",
    )
    parser.add_argument(
        "--expect-cached",
        action="store_true",
        help="with --manifest: also require jobs_executed == 0 and "
             "jobs_from_cache == jobs_total (a re-run over a warm store)",
    )
    parser.add_argument(
        "--conservation",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="validate a flight report JSON's packet-conservation "
             "identity instead of checking bench timings",
    )
    parser.add_argument(
        "--profile",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="validate a span profile JSON's layer attribution "
             "instead of checking bench timings",
    )
    args = parser.parse_args(argv)
    if args.profile is not None:
        if not args.profile.exists():
            print(f"error: {args.profile} not found", file=sys.stderr)
            return 2
        return check_profile(args.profile)
    if args.conservation is not None:
        if not args.conservation.exists():
            print(f"error: {args.conservation} not found", file=sys.stderr)
            return 2
        return check_conservation(args.conservation)
    if args.manifest is not None:
        if not args.manifest.exists():
            print(f"error: {args.manifest} not found", file=sys.stderr)
            return 2
        return check_manifest(args.manifest, args.expect_cached)
    if not args.path.exists():
        print(f"error: {args.path} not found", file=sys.stderr)
        return 2
    return check(args.path, args.floor, args.ratio_drop)


if __name__ == "__main__":
    sys.exit(main())
