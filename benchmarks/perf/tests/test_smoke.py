"""``run.py --smoke`` end to end: every named metric comes back with its unit."""

import json
import subprocess
import sys
from pathlib import Path

import metrics
from workloads import WORKLOADS

PERF = Path(__file__).resolve().parents[1]


def test_smoke_reports_every_metric(tmp_path):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--seed", "5", "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout
    record = json.loads(out.read_text())
    assert record["smoke"] and record["seed"] == 5 and record["nproc"] >= 1
    assert list(record["workloads"]) == list(WORKLOADS)
    for workload, entry in record["workloads"].items():
        assert entry["end_to_end"]["failed"] == 0 and entry["per_layer"]["failed"] == 0
        for name, unit, *_ in metrics.END_TO_END:
            assert entry["end_to_end"]["metrics"][name]["unit"] == unit
            assert entry["end_to_end"]["metrics"][name]["value"] > 0
        for name, unit, *_ in metrics.PER_LAYER:
            assert entry["per_layer"]["metrics"][name]["unit"] == unit, (workload, name)
            assert f"\n{name} " in proc.stdout
    sweep = record["workloads"]["figure_sweep"]["per_layer"]["metrics"]
    assert sweep["scenario.pool_vs_inline_identical"]["value"] == 1
    assert sweep["fabric.leases_reassigned"]["value"] == 0
    assert sweep["fabric.fallback_points"]["value"] == 0
    dense = record["workloads"]["dense_cell"]["per_layer"]["metrics"]
    assert dense["trace.digest_match"]["value"] == 1
    assert dense["trace.span_coverage"]["value"] >= 0.98
    # Nothing is left behind but result files.
    assert not list((PERF / "out").glob("tmp-*"))
