"""Manifests and the progress line: provenance, reconciliation, re-runs."""

import io
import json

import pytest

from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    ProgressLine,
    build_manifest,
    manifest_summary_pairs,
    write_manifest,
)
from repro.scenario.config import ScenarioConfig
from repro.scenario.executor import SweepExecutor, config_cache_key

SMALL = dict(
    protocol="aodv",
    n_nodes=6,
    field_size=(250.0, 250.0),
    duration=5.0,
    n_connections=2,
    rate=1.0,
    packet_size=64,
    traffic_start_window=(0.0, 1.0),
)


def _configs(n, **over):
    return [
        ScenarioConfig(**{**SMALL, **over}, seed=100 + i) for i in range(n)
    ]


def _manifest(**over):
    base = dict(
        job_keys=["a", "b", "c"],
        jobs_executed=2,
        jobs_from_cache=1,
        failures=[],
        retries=0,
        timeouts=0,
        pool_restarts=0,
        workers=2,
        wall_time_s=1.0,
        job_wall_times_s={0: 0.4, 1: 0.6},
        cache_salt="test-salt",
    )
    base.update(over)
    return build_manifest(**base)


def test_manifest_records_provenance():
    m = _manifest()
    assert m["schema"] == MANIFEST_SCHEMA_VERSION
    assert m["cache_salt"] == "test-salt"
    assert len(m["sweep_key"]) == 64
    assert m["python"] and m["platform"]
    # Results depend on the configs alone: no environment is recorded.
    assert "env" not in m and "engine_options" not in m


def test_sweep_key_is_order_insensitive():
    a = _manifest(job_keys=["x", "y", "z"])
    b = _manifest(job_keys=["z", "x", "y"])
    c = _manifest(job_keys=["x", "y", "w"])
    assert a["sweep_key"] == b["sweep_key"]
    assert a["sweep_key"] != c["sweep_key"]


def test_worker_utilization_bounded():
    m = _manifest(job_wall_times_s={0: 10.0, 1: 10.0}, wall_time_s=1.0)
    assert m["worker_utilization"] == 1.0
    m = _manifest(job_wall_times_s={}, wall_time_s=0.0)
    assert m["worker_utilization"] == 0.0


def test_write_manifest_roundtrip(tmp_path):
    path = tmp_path / "deep" / "manifest.json"
    m = _manifest()
    write_manifest(m, path)
    assert json.loads(path.read_text()) == m


def test_summary_pairs_render():
    pairs = manifest_summary_pairs(_manifest())
    assert pairs["jobs total"] == 3
    assert pairs["jobs from cache"] == 1
    assert "job wall time mean/max (s)" in pairs


class TestHardenedRendering:
    """Old, trimmed, or hand-edited manifests still render.

    ``obs report`` is a forensic tool — it gets pointed at artifacts
    from older writers and from runs that died halfway. Missing or
    junk optional sections must degrade to placeholders, never raise.
    """

    def test_summary_pairs_survive_a_gutted_manifest(self):
        pairs = manifest_summary_pairs({})
        assert pairs["sweep key"] == "?"
        assert pairs["jobs total"] == 0
        assert pairs["wall time (s)"] == 0.0
        assert "job wall time mean/max (s)" not in pairs
        assert "fabric broker" not in pairs

    def test_summary_pairs_coerce_junk_fields(self):
        pairs = manifest_summary_pairs({
            "sweep_key": None,
            "created_unix": "not-a-timestamp",
            "git_sha": None,
            "wall_time_s": "fast",
            "worker_utilization": None,
            "job_wall_times_s": {"0": 0.5, "1": "oops", "2": None},
            "fabric": "not-a-dict",
        })
        assert pairs["sweep key"] == "?"
        assert pairs["git sha"] == "n/a"
        assert pairs["wall time (s)"] == 0.0
        assert pairs["worker utilization"] == 0.0
        # The one parseable wall time still produces the stat line.
        assert pairs["job wall time mean/max (s)"] == "0.500 / 0.500"
        assert "fabric broker" not in pairs

    def test_report_renders_null_failures_section(self):
        from repro.obs.report import render_manifest_report

        text = render_manifest_report({"failures": None})
        assert "Sweep manifest" in text
        assert "failures" not in text

    def test_report_renders_non_dict_failure_entries(self):
        from repro.obs.report import render_manifest_report

        text = render_manifest_report(
            {"failures": ["worker exploded", {"index": 3,
                                             "kind": "timeout",
                                             "attempts": 2}]}
        )
        assert "failures (2):" in text
        assert "'worker exploded'" in text
        assert "#3 timeout after 2 attempt(s)" in text

    def test_profile_table_zero_fills_damaged_spans(self):
        from repro.obs.report import render_profile_table

        text = render_profile_table({
            "event-loop": {"calls": 2, "wall_s": 0.5, "self_s": 0.5},
            "corrupted": "not-a-dict",
        })
        assert "event-loop" in text and "corrupted" in text
        assert "100.0" in text  # the intact span owns all self time

    def test_profile_table_empty(self):
        from repro.obs.report import render_profile_table

        assert "no spans" in render_profile_table({})


class TestProgressLine:
    def test_counts_and_eta(self):
        buf = io.StringIO()
        p = ProgressLine(4, stream=buf)
        p.update(ok=True)
        p.update(ok=False)
        assert p.done == 2 and p.failures == 1
        line = p.line()
        assert "sweep 2/4" in line and "1 failed" in line and "eta" in line
        p.update()
        p.update()
        assert "done" in p.line()
        p.finish()
        assert buf.getvalue().endswith("\n")

    def test_cached_points_seed_done_but_not_rate(self):
        buf = io.StringIO()
        p = ProgressLine(10, already_done=7, stream=buf)
        assert p.done == 7 and p.fresh == 0
        assert "7 cached" in p.line()
        p.update(ok=True)
        # Rate counts only the one fresh job, never the 7 cached ones.
        assert p.done == 8 and p.fresh == 1
        assert p.line().startswith("[sweep 8/10")

    def test_zero_total_renders_nothing(self):
        buf = io.StringIO()
        p = ProgressLine(0, stream=buf)
        p.finish()
        assert buf.getvalue() == ""


class TestExecutorManifest:
    def test_manifest_reconciles_with_results(self, tmp_path):
        ex = SweepExecutor(processes=1, cache_dir=str(tmp_path), use_cache=True)
        try:
            configs = _configs(3)
            ex.run(configs)
            m = ex.last_manifest
            assert m is not None
            assert m["jobs_total"] == 3
            assert m["jobs_total"] == m["jobs_executed"] + m["jobs_from_cache"]
            assert m["jobs_executed"] == 3 and m["jobs_from_cache"] == 0
            assert m["jobs_failed"] == 0 and m["failures"] == []
            # Written at the root of the result store.
            on_disk = json.loads(ex.manifest_path.read_text())
            assert on_disk["sweep_key"] == m["sweep_key"]
            assert len(m["job_wall_times_s"]) == 3
            assert all(v >= 0 for v in m["job_wall_times_s"].values())

            # Second pass: everything cached, nothing executed.
            ex.run(configs)
            m2 = ex.last_manifest
            assert m2["jobs_from_cache"] == 3 and m2["jobs_executed"] == 0
            assert m2["jobs_total"] == (
                m2["jobs_executed"] + m2["jobs_from_cache"]
            )
            assert m2["sweep_key"] == m["sweep_key"]
        finally:
            ex.close()

    def test_rerun_counts_stored_points_as_completed(self, tmp_path):
        ex = SweepExecutor(processes=1, cache_dir=str(tmp_path), use_cache=True)
        try:
            configs = _configs(4)
            ex.run(configs[:2])  # an interrupted sweep: two points stored
            ex.run(configs)
            m = ex.last_manifest
            assert m["jobs_from_cache"] == 2
            assert m["jobs_executed"] == 2
            assert m["jobs_total"] == m["jobs_executed"] + m["jobs_from_cache"]
            # Reconcile against the store itself: every point of the
            # re-run sweep is now an entry under its content key.
            assert all(
                ex._cache.get(config_cache_key(c)) is not None for c in configs
            )
            assert "resume" not in m and "jobs_resumed" not in m
        finally:
            ex.close()

    def test_failures_taxonomized_in_manifest(self, tmp_path, monkeypatch):
        import repro.scenario.executor as executor_mod

        def boom(cfg):
            raise RuntimeError("synthetic worker failure")

        monkeypatch.setattr(executor_mod, "run_scenario", boom)
        ex = SweepExecutor(processes=1, cache_dir=str(tmp_path), use_cache=True)
        try:
            results = ex.run(_configs(1))
            m = ex.last_manifest
            assert m["jobs_failed"] == 1
            assert m["failures"][0]["kind"] == "exception"
            assert m["failures"][0]["index"] == 0
            assert "synthetic worker failure" in m["failures"][0]["error"]
            assert results[0].failed
        finally:
            ex.close()

    def test_no_cache_keeps_manifest_in_memory_only(self, tmp_path):
        ex = SweepExecutor(
            processes=1, cache_dir=str(tmp_path), use_cache=False
        )
        try:
            ex.run(_configs(2))
            assert ex.last_manifest is not None
            assert ex.last_manifest_path is None
            assert not ex.manifest_path.exists()
        finally:
            ex.close()

    def test_progress_resume_accounting(self, tmp_path, capsys):
        ex = SweepExecutor(processes=1, cache_dir=str(tmp_path), use_cache=True)
        try:
            configs = _configs(3)
            ex.run(configs[:2])
            capsys.readouterr()
            ex.run(configs, progress=True)
            err = capsys.readouterr().err
            # Cached points are pre-counted, and the final state shows
            # every point done with the cached count called out.
            assert "sweep 3/3" in err
            assert "2 cached" in err
            assert err.endswith("\n")
        finally:
            ex.close()
