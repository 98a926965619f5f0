#!/usr/bin/env python3
"""Compare two result files of ``run.py``: one row per (end-to-end metric, workload).

    python benchmarks/perf/compare.py A.json B.json

A is the baseline. A row reads both medians, B as a ratio of A, and a
verdict against the metric's bound in ``metrics.py``:

``worse``       B's median is worse than A's by more than the bound
``better``      B's median is better than A's by more than the bound
``same``        the medians are within the bound of each other
``unresolved``  either side's min-max range is wider than the bound and
                the two ranges overlap, so the medians decide nothing

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys

from metrics import END_TO_END, SETUP_FLOOR_S


def verdict(a: dict, b: dict, better: str, bound: float, floor: float = 0.0) -> str:
    """Judge B's samples against A's; *a* and *b* carry value, min and max."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b["value"] - a["value"])
    margin = max(bound * abs(a["value"]), floor)
    noisy = any(m["max"] - m["min"] > bound * abs(m["value"]) for m in (a, b))
    apart = b["min"] > a["max"] or b["max"] < a["min"]
    if noisy and not apart:
        return "unresolved"
    if worsening > margin:
        return "worse"
    if worsening < -margin:
        return "better"
    return "same"


def rows(a: dict, b: dict):
    """``(workload, metric, A, B, unit, verdict)`` for every shared pairing."""
    for workload, entry in a["workloads"].items():
        ours = entry.get("end_to_end")
        theirs = b["workloads"].get(workload, {}).get("end_to_end")
        if not ours or not theirs:
            continue
        for name, unit, better, bound in END_TO_END:
            floor = SETUP_FLOOR_S if name == "setup_s" else 0.0
            ma, mb = ours["metrics"][name], theirs["metrics"][name]
            yield workload, name, ma["value"], mb["value"], unit, verdict(
                ma, mb, better, bound, floor)
        # Bound 0, absolute: any new failed operation is a regression.
        fa, fb = ours["failed_share"], theirs["failed_share"]
        yield workload, "failed_share", fa, fb, "fraction", (
            "worse" if fb > fa else "better" if fb < fa else "same")


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as fa, open(argv[2]) as fb:
        a, b = json.load(fa), json.load(fb)
    print(f"{'workload':13s} {'metric':12s} {'A':>11s} {'B':>11s} {'unit':8s} "
          f"{'B/A':>17s}  verdict")
    worse = 0
    for workload, name, va, vb, unit, judged in rows(a, b):
        of = f"{vb / va:.3f}x of A={va:.4g}" if va else "-"
        print(f"{workload:13s} {name:12s} {va:11.4f} {vb:11.4f} {unit:8s} {of:>17s}  {judged}")
        worse += judged == "worse"
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
