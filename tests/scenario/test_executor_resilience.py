"""Executor resilience: worker crashes, timeouts, retries, re-runs.

These tests stub ``repro.scenario.executor.run_scenario`` with cheap
functions so they exercise pure dispatch mechanics. The stub reaches
forked slot children because the slots are created *after* the
monkeypatch (fork inherits parent memory), so every test uses a fresh
``SweepExecutor``.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.scenario import FailedRun, ScenarioConfig, SweepExecutor, run_sweep
import repro.scenario.executor as exmod

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="resilience tests require fork workers"
)

SMALL = dict(
    n_nodes=6,
    field_size=(400.0, 300.0),
    duration=5.0,
    n_connections=2,
    traffic_start_window=(0.0, 1.0),
)

#: Sentinel seed: the stub worker kills its own process on this config.
KILLER = 666


def cfgs(*seeds):
    return [ScenarioConfig(seed=s, **SMALL) for s in seeds]


@pytest.fixture
def executor_factory():
    made = []

    def make(**kwargs):
        kwargs.setdefault("use_cache", False)
        ex = SweepExecutor(**kwargs)
        made.append(ex)
        return ex

    yield make
    for ex in made:
        ex.close()


class TestWorkerCrash:
    def test_killed_worker_fails_only_its_point(
        self, monkeypatch, executor_factory
    ):
        def stub(cfg):
            if cfg.seed == KILLER:
                os._exit(13)  # simulate a segfault/OOM-kill
            return cfg.seed

        monkeypatch.setattr(exmod, "run_scenario", stub)
        ex = executor_factory(processes=2, max_retries=0)
        out = ex.run(cfgs(1, 2, KILLER, 3, 4))
        # Only the killer config fails; bystanders all complete.
        assert [out[i] for i in (0, 1, 3, 4)] == [1, 2, 3, 4]
        failed = out[2]
        assert isinstance(failed, FailedRun)
        assert failed.kind == "worker_lost"
        assert "exit code 13" in failed.error
        assert failed.config.seed == KILLER
        assert ex.last_failures == [failed]
        # Exactly one slot child was lost, and its slot forks anew.
        assert ex.pool_restarts == 1

    def test_worker_death_reruns_nobody_else(
        self, monkeypatch, executor_factory, tmp_path
    ):
        def stub(cfg):
            if cfg.seed == KILLER:
                os._exit(13)
            with open(tmp_path / f"ran-{cfg.seed}", "a") as fh:
                fh.write("x")
            return cfg.seed

        monkeypatch.setattr(exmod, "run_scenario", stub)
        ex = executor_factory(processes=2, max_retries=0)
        out = ex.run(cfgs(1, 2, KILLER, 3, 4))
        assert [out[i] for i in (0, 1, 3, 4)] == [1, 2, 3, 4]
        assert ex.last_manifest["retries"] == 0
        # Every bystander ran exactly once: the death was charged to
        # the killer alone, so nothing was re-queued to find it.
        for seed in (1, 2, 3, 4):
            assert (tmp_path / f"ran-{seed}").read_text() == "x"

    def test_pool_keeps_working_after_crash(self, monkeypatch, executor_factory):
        def stub(cfg):
            if cfg.seed == KILLER:
                os._exit(13)
            return cfg.seed

        monkeypatch.setattr(exmod, "run_scenario", stub)
        ex = executor_factory(processes=2, max_retries=0)
        ex.run(cfgs(KILLER, 1))
        # A subsequent batch on the same executor is unaffected.
        assert ex.run(cfgs(5, 6, 7)) == [5, 6, 7]

    def test_transient_crash_retried_to_success(
        self, monkeypatch, executor_factory, tmp_path
    ):
        # The worker dies the first time it sees the config, then
        # succeeds: one retry must absorb a transient kill.
        marker = tmp_path / "crashed-once"

        def stub(cfg):
            if cfg.seed == KILLER and not marker.exists():
                marker.touch()
                os._exit(13)
            return cfg.seed

        monkeypatch.setattr(exmod, "run_scenario", stub)
        ex = executor_factory(processes=2, max_retries=1, retry_backoff=0.01)
        assert ex.run(cfgs(1, KILLER)) == [1, KILLER]


class TestExceptionsAndRetries:
    def test_worker_exception_becomes_failed_run(
        self, monkeypatch, executor_factory
    ):
        def stub(cfg):
            if cfg.seed == 5:
                raise ValueError("bad parameters")
            return cfg.seed

        monkeypatch.setattr(exmod, "run_scenario", stub)
        ex = executor_factory(processes=2, max_retries=0)
        out = ex.run(cfgs(1, 5, 2))
        assert isinstance(out[1], FailedRun)
        assert out[1].kind == "exception"
        assert "bad parameters" in out[1].error
        assert out[1].attempts == 1

    def test_transient_exception_retried(
        self, monkeypatch, executor_factory, tmp_path
    ):
        marker = tmp_path / "raised-once"

        def stub(cfg):
            if cfg.seed == 5 and not marker.exists():
                marker.touch()
                raise RuntimeError("transient")
            return cfg.seed

        monkeypatch.setattr(exmod, "run_scenario", stub)
        ex = executor_factory(processes=2, max_retries=2, retry_backoff=0.01)
        assert ex.run(cfgs(5, 6)) == [5, 6]

    def test_inline_mode_records_exceptions_too(
        self, monkeypatch, executor_factory
    ):
        def stub(cfg):
            if cfg.seed == 5:
                raise RuntimeError("boom")
            return cfg.seed

        monkeypatch.setattr(exmod, "run_scenario", stub)
        ex = executor_factory(processes=1)
        out = ex.run(cfgs(1, 5, 2))
        assert out[0] == 1 and out[2] == 2
        assert isinstance(out[1], FailedRun)
        assert out[1].kind == "exception"


class TestTimeout:
    def test_hung_job_times_out(self, monkeypatch, executor_factory):
        def stub(cfg):
            if cfg.seed == 9:
                time.sleep(60)
            return cfg.seed

        monkeypatch.setattr(exmod, "run_scenario", stub)
        ex = executor_factory(processes=2, job_timeout=0.5, max_retries=0)
        t0 = time.monotonic()
        out = ex.run(cfgs(1, 9, 2))
        assert time.monotonic() - t0 < 30.0  # nowhere near the 60 s hang
        assert out[0] == 1 and out[2] == 2
        assert isinstance(out[1], FailedRun)
        assert out[1].kind == "timeout"

    def test_timed_out_job_process_is_gone(
        self, monkeypatch, executor_factory, tmp_path
    ):
        pidfile = tmp_path / "hung.pid"

        def stub(cfg):
            if cfg.seed == 9:
                pidfile.write_text(str(os.getpid()))
                time.sleep(60)
            return cfg.seed

        monkeypatch.setattr(exmod, "run_scenario", stub)
        ex = executor_factory(processes=2, job_timeout=0.5, max_retries=0)
        out = ex.run(cfgs(1, 9, 2))
        assert out[1].kind == "timeout"
        # The hung child was killed and reaped, not left burning a core.
        with pytest.raises(ProcessLookupError):
            os.kill(int(pidfile.read_text()), 0)

    def test_env_knobs_resolve(self, monkeypatch):
        monkeypatch.setenv("MANETSIM_JOB_TIMEOUT", "12.5")
        monkeypatch.setenv("MANETSIM_JOB_RETRIES", "7")
        ex = SweepExecutor(processes=1, use_cache=False)
        assert ex.job_timeout == 12.5
        assert ex.max_retries == 7

    def test_zero_timeout_means_disabled(self):
        ex = SweepExecutor(processes=1, use_cache=False, job_timeout=0)
        assert ex.job_timeout is None

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(processes=1, use_cache=False, max_retries=-1)


class TestOrphanedSlot:
    @pytest.mark.skipif(
        not Path("/proc/self/stat").exists(), reason="reads /proc"
    )
    def test_slot_child_exits_when_its_parent_is_killed(self):
        # A SIGKILLed parent runs no cleanup: its idle slot child must
        # notice the hang-up on its pipe and exit by itself.
        script = (
            "import time\n"
            "from repro.scenario.slot import JobSlot, wait_any\n"
            "slot = JobSlot(abs)\n"
            "slot.start(-1)\n"
            "wait_any([slot])\n"
            "assert slot.outcome() == ('ok', 1)\n"
            "print(slot._proc.pid, flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        parent = subprocess.Popen(
            [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE
        )
        try:
            child = int(parent.stdout.readline())
        finally:
            parent.kill()
            parent.wait(timeout=10.0)
            parent.stdout.close()
        stat = Path(f"/proc/{child}/stat")
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                state = stat.read_text().rsplit(")", 1)[1].split()[0]
            except (OSError, IndexError):
                return  # gone (and reaped)
            if state == "Z":
                return  # exited; waiting for its new parent to reap it
            time.sleep(0.05)
        pytest.fail(f"orphaned slot child {child} is still running")


class TestRerun:
    def test_rerun_executes_only_unfinished_points(
        self, monkeypatch, executor_factory, tmp_path, make_summary
    ):
        # First pass: the killer config breaks its worker and fails.
        # Second pass (killer now behaves), no flag: the store answers
        # the finished points and the failed one re-runs alone.
        marker = tmp_path / "be-nice"

        def stub(cfg):
            if cfg.seed == KILLER and not marker.exists():
                os._exit(13)
            return make_summary(cfg.seed)

        monkeypatch.setattr(exmod, "run_scenario", stub)
        ex = executor_factory(
            processes=2, use_cache=True, cache_dir=str(tmp_path), max_retries=0
        )
        first = ex.run(cfgs(1, 2, KILLER, 3))
        assert isinstance(first[2], FailedRun)
        assert ex.last_manifest["jobs_failed"] == 1

        marker.touch()
        second = ex.run(cfgs(1, 2, KILLER, 3))
        assert second == [make_summary(s) for s in (1, 2, KILLER, 3)]
        assert ex.last_cache_hits == 3  # finished points came from the store
        manifest = json.loads(ex.last_manifest_path.read_text())
        assert manifest["jobs_executed"] == 1  # only the failed point re-ran
        assert manifest["jobs_from_cache"] == 3
        assert manifest["jobs_failed"] == 0


class TestCacheCorruption:
    def test_truncated_entry_is_a_miss_and_recomputed(self, tmp_path):
        base = ScenarioConfig(seed=11, **SMALL)
        kwargs = dict(
            replications=1, processes=1, cache=True, cache_dir=str(tmp_path)
        )
        first = run_sweep(base, "pause_time", [0.0], ["aodv"], **kwargs)
        assert first.cache_misses == 1
        (entry,) = (tmp_path / "sweep").rglob("*.json")
        # Truncate mid-document (a torn write survived a crash).
        blob = entry.read_bytes()
        entry.write_bytes(blob[: len(blob) // 2])
        again = run_sweep(base, "pause_time", [0.0], ["aodv"], **kwargs)
        assert (again.cache_hits, again.cache_misses) == (0, 1)
        assert again.raw == first.raw

    def test_put_leaves_no_tmp_litter(self, tmp_path):
        base = ScenarioConfig(seed=12, **SMALL)
        run_sweep(
            base, "pause_time", [0.0], ["aodv"],
            replications=1, processes=1, cache=True, cache_dir=str(tmp_path),
        )
        stray = [p for p in (tmp_path / "sweep").rglob("*") if ".tmp" in p.name]
        assert stray == []


class TestSweepFailureSurface:
    def test_run_sweep_reports_failures_and_nan_cells(
        self, monkeypatch, tmp_path
    ):
        def stub(cfg):
            if cfg.pause_time == 5.0:
                raise RuntimeError("cursed cell")
            from repro.stats.metrics import MetricsSummary

            return MetricsSummary(
                protocol=cfg.protocol, duration=cfg.duration, data_sent=10,
                data_received=8, pdr=0.8, avg_delay=0.01, p95_delay=0.02,
                avg_hops=2.0, throughput_bps=1e4, routing_overhead_packets=5,
                routing_overhead_bytes=500, normalized_routing_load=0.6,
                mac_overhead_frames=20, normalized_mac_load=2.5,
                drops_no_route=0, drops_buffer=0, drops_ifq=0, drops_retry=0,
                mac_collisions=0,
            )

        monkeypatch.setattr(exmod, "run_scenario", stub)
        monkeypatch.setenv("MANETSIM_PROCESSES", "1")
        monkeypatch.setenv("MANETSIM_JOB_RETRIES", "0")
        base = ScenarioConfig(seed=13, **SMALL)
        result = run_sweep(
            base, "pause_time", [0.0, 5.0], ["aodv"],
            replications=1, cache=False,
        )
        assert not result.ok
        assert len(result.failures) == 1
        assert result.failures[0].config.pause_time == 5.0
        series = result.series("aodv", "pdr")
        assert series[0] == pytest.approx(0.8)
        assert series[1] != series[1]  # nan cell, but still plottable
