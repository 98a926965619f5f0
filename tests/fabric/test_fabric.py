"""Fabric integration: broker + workers + executor, end to end.

Bit-identity is the load-bearing assertion throughout:
``run_scenario`` is deterministic in its config, so a sweep routed
through the fabric — whatever got reassigned, cached, or degraded
along the way — must reproduce the local-pool result exactly.
"""

import json
import threading
import urllib.request

import pytest

import repro.scenario.executor as exmod
import repro.scenario.run as runmod
from repro.fabric.broker import BrokerThread
from repro.fabric.client import FabricClient
from repro.fabric.store import ResultStore
from repro.scenario import (
    FailedRun,
    ScenarioConfig,
    SweepExecutor,
    run_scenario,
    run_sweep,
)
from repro.scenario.executor import config_cache_key
from repro.scenario.io import config_to_dict

from .conftest import SMALL

BASE = ScenarioConfig(protocol="aodv", seed=3, **SMALL)


def _sweep(cache_dir, fabric=None, **kwargs):
    kwargs.setdefault("replications", 1)
    kwargs.setdefault("processes", 1)
    return run_sweep(
        BASE, "pause_time", [0.0, 30.0], ["aodv", "dsdv"],
        cache_dir=str(cache_dir), fabric=fabric, **kwargs
    )


class TestCleanFleetRun:
    def test_fleet_matches_local_bit_for_bit(
        self, tmp_path, broker_factory, thread_worker
    ):
        broker = broker_factory(cache_dir=str(tmp_path / "fleet"))
        thread_worker(broker.address)
        via_fleet = _sweep(tmp_path / "client", fabric=broker.address)
        local = _sweep(tmp_path / "local")

        assert via_fleet.ok and local.ok
        assert via_fleet.raw == local.raw
        fab = via_fleet.fabric
        assert fab["connected"] is True
        assert fab["points_executed"] == 4
        assert fab["fallback_points"] == 0
        assert fab["workers_seen"] == 1
        m = via_fleet.manifest
        assert m["jobs_total"] == m["jobs_executed"] + m["jobs_from_cache"]
        assert m["fabric"]["counters_complete"] is True

    def test_second_client_is_answered_from_the_peer_cache(
        self, tmp_path, broker_factory, thread_worker
    ):
        broker = broker_factory(cache_dir=str(tmp_path / "fleet"))
        thread_worker(broker.address)
        first = _sweep(tmp_path / "client-a", fabric=broker.address)
        # Fresh local cache: every point must come from the broker's
        # store without touching a worker, and count as a cache hit.
        second = _sweep(tmp_path / "client-b", fabric=broker.address)

        assert second.raw == first.raw
        assert second.fabric["results_from_peer_cache"] == 4
        assert second.fabric["points_executed"] == 0
        assert second.manifest["jobs_executed"] == 0
        assert second.manifest["jobs_from_cache"] == 4

    def test_healthz_counts_fleet_work(
        self, tmp_path, broker_factory, thread_worker
    ):
        broker = broker_factory(cache_dir=str(tmp_path / "fleet"))
        thread_worker(broker.address)
        result = run_sweep(
            BASE, "pause_time", [0.0], ["aodv"], replications=1, processes=1,
            cache_dir=str(tmp_path / "client"), fabric=broker.address,
        )
        assert result.ok
        with urllib.request.urlopen(
            f"http://{broker.address}/healthz", timeout=5.0
        ) as resp:
            assert resp.headers["Content-Type"] == "application/json"
            counters = json.loads(resp.read())
        assert counters["jobs_executed"] == 1
        assert counters["workers_seen"] == 1
        (worker,) = counters["per_worker"].values()
        assert worker["jobs"] == 1

    def test_flight_trace_is_stored_whole(
        self, tmp_path, broker_factory, thread_worker
    ):
        # The fleet's store keeps a traced summary whole, as the local
        # pool's cache does: causal events included.
        base = BASE.with_(flight=True, flight_trace=True)
        broker = broker_factory(cache_dir=str(tmp_path / "fleet"))
        thread_worker(broker.address)
        result = run_sweep(
            base, "pause_time", [0.0], ["aodv"], replications=1, processes=1,
            cache_dir=str(tmp_path / "client"), fabric=broker.address,
        )
        assert result.ok
        assert result.fabric["points_executed"] == 1
        cfg = base.with_(pause_time=0.0, replication=0)
        stored = ResultStore(tmp_path / "fleet").get(config_cache_key(cfg))
        expected = run_scenario(cfg)
        assert stored.flight["events"]
        assert stored.flight == expected.flight
        assert stored == expected

    def test_resume_works_across_a_broker_restart(self, tmp_path, thread_worker):
        fleet_dir = str(tmp_path / "fleet")
        bt = BrokerThread(cache_dir=fleet_dir)
        broker = bt.start()
        try:
            thread_worker(broker.address)
            first = _sweep(tmp_path / "client-a", fabric=broker.address)
            assert first.ok
        finally:
            bt.stop()
        # A NEW broker over the same cache directory — with no workers
        # at all — answers the whole sweep from the persisted store.
        bt2 = BrokerThread(cache_dir=fleet_dir, no_worker_grace=60.0)
        broker2 = bt2.start()
        try:
            again = _sweep(tmp_path / "client-b", fabric=broker2.address)
        finally:
            bt2.stop()
        assert again.ok
        assert again.raw == first.raw
        assert again.fabric["results_from_peer_cache"] == 4
        assert again.fabric["points_executed"] == 0


class TestDegradation:
    def test_unreachable_broker_falls_back_to_local_pool(self, tmp_path):
        with pytest.warns(RuntimeWarning, match="unreachable"):
            result = _sweep(tmp_path / "client", fabric="127.0.0.1:1")
        local = _sweep(tmp_path / "local")
        assert result.ok
        assert result.raw == local.raw
        assert result.fabric["connected"] is False
        assert result.fabric["fallback_points"] == 4

    def test_exhausted_fleet_falls_back_to_local_pool(
        self, tmp_path, broker_factory
    ):
        broker = broker_factory(
            cache_dir=str(tmp_path / "fleet"), no_worker_grace=0.2
        )
        with pytest.warns(RuntimeWarning, match="no workers"):
            result = _sweep(tmp_path / "client", fabric=broker.address)
        local = _sweep(tmp_path / "local")
        assert result.ok
        assert result.raw == local.raw
        assert result.fabric["fallback_points"] == 4
        m = result.manifest
        assert m["jobs_total"] == m["jobs_executed"] + m["jobs_from_cache"]


class TestFleetWideDedup:
    def test_identical_configs_are_computed_once(
        self, tmp_path, broker_factory, thread_worker
    ):
        broker = broker_factory(cache_dir=str(tmp_path / "fleet"))
        thread_worker(broker.address)
        cfg = BASE
        key = config_cache_key(cfg)
        spec = {"key": key, "config": config_to_dict(cfg)}
        client = FabricClient(broker.address)
        client.connect()
        try:
            client.submit([dict(spec, index=0), dict(spec, index=1)])
            points = [
                m for m in client.events() if m.get("type") == "point"
            ]
        finally:
            client.close()
        assert sorted(p["index"] for p in points) == [0, 1]
        assert points[0]["summary"] == points[1]["summary"]
        # One execution served both waiters.
        assert broker.counters["jobs_executed"] == 1
        assert len(broker.jobs) == 1


class TestFleetFailureTaxonomy:
    @pytest.fixture
    def stub_scenario(self, monkeypatch):
        """Patch run_scenario where fleet children AND the local pool
        find it (fork inherits the patched modules)."""

        def patch(fn):
            monkeypatch.setattr(runmod, "run_scenario", fn)
            monkeypatch.setattr(exmod, "run_scenario", fn)

        return patch

    def _run(self, tmp_path, broker, **executor_kwargs):
        executor_kwargs.setdefault("processes", 1)
        executor_kwargs.setdefault("use_cache", False)
        ex = SweepExecutor(**executor_kwargs)
        try:
            return ex.run(
                [ScenarioConfig(seed=s, **SMALL) for s in (1, 5, 2)],
                fabric=broker.address,
            )
        finally:
            ex.close()

    def test_worker_exception_maps_to_failed_run(
        self, tmp_path, broker_factory, thread_worker, stub_scenario,
        make_summary,
    ):
        def stub(cfg):
            if cfg.seed == 5:
                raise ValueError("cursed point")
            return make_summary(cfg.seed)

        stub_scenario(stub)
        broker = broker_factory(cache_dir=str(tmp_path / "fleet"))
        thread_worker(broker.address)
        out = self._run(tmp_path, broker, max_retries=0)
        assert out[0] == make_summary(1) and out[2] == make_summary(2)
        assert isinstance(out[1], FailedRun)
        assert out[1].kind == "exception"
        assert "cursed point" in out[1].error

    def test_dead_job_child_maps_to_worker_lost(
        self, tmp_path, broker_factory, thread_worker, stub_scenario,
        make_summary,
    ):
        import os as _os

        def stub(cfg):
            if cfg.seed == 5:
                _os._exit(13)  # the job child dies without reporting
            return make_summary(cfg.seed)

        stub_scenario(stub)
        broker = broker_factory(cache_dir=str(tmp_path / "fleet"))
        thread_worker(broker.address)
        out = self._run(tmp_path, broker, max_retries=0)
        assert out[0] == make_summary(1) and out[2] == make_summary(2)
        assert isinstance(out[1], FailedRun)
        assert out[1].kind == "worker_lost"
        assert "exit code 13" in out[1].error

    def test_hung_job_times_out_fleet_side(
        self, tmp_path, broker_factory, thread_worker, stub_scenario,
        make_summary,
    ):
        import time as _time

        def stub(cfg):
            if cfg.seed == 5:
                _time.sleep(60)
            return make_summary(cfg.seed)

        stub_scenario(stub)
        broker = broker_factory(cache_dir=str(tmp_path / "fleet"))
        thread_worker(broker.address)
        out = self._run(tmp_path, broker, max_retries=0, job_timeout=0.5)
        assert out[0] == make_summary(1) and out[2] == make_summary(2)
        assert isinstance(out[1], FailedRun)
        assert out[1].kind == "timeout"

    def test_fleet_retries_transient_failures(
        self, tmp_path, broker_factory, thread_worker, stub_scenario,
        make_summary,
    ):
        marker = tmp_path / "raised-once"

        def stub(cfg):
            if cfg.seed == 5 and not marker.exists():
                marker.touch()
                raise RuntimeError("transient")
            return make_summary(cfg.seed)

        stub_scenario(stub)
        broker = broker_factory(cache_dir=str(tmp_path / "fleet"))
        thread_worker(broker.address)
        out = self._run(tmp_path, broker, max_retries=2)
        assert out == [make_summary(s) for s in (1, 5, 2)]
