"""The persistent sweep executor: chunked dispatch + on-disk cache."""

import pytest

from repro.core.trace import Tracer
from repro.scenario import ScenarioConfig, config_cache_key, run_sweep
from repro.scenario.executor import SweepExecutor, _resolve_processes

SMALL = dict(
    n_nodes=6,
    field_size=(400.0, 300.0),
    duration=5.0,
    n_connections=2,
    traffic_start_window=(0.0, 1.0),
)


class TestCacheKey:
    def test_stable_and_sensitive(self):
        a = ScenarioConfig(seed=1, **SMALL)
        assert config_cache_key(a) == config_cache_key(ScenarioConfig(seed=1, **SMALL))
        assert config_cache_key(a) != config_cache_key(a.with_(seed=2))
        assert config_cache_key(a) != config_cache_key(a.with_(replication=1))


class TestDiskCache:
    def test_second_sweep_hits_and_matches(self, tmp_path):
        base = ScenarioConfig(seed=3, **SMALL)
        kwargs = dict(replications=1, processes=1, cache=True,
                      cache_dir=str(tmp_path))
        first = run_sweep(base, "pause_time", [0.0, 5.0], ["aodv"], **kwargs)
        assert (first.cache_hits, first.cache_misses) == (0, 2)
        second = run_sweep(base, "pause_time", [0.0, 5.0], ["aodv"], **kwargs)
        assert (second.cache_hits, second.cache_misses) == (2, 0)
        # Cached and fresh summaries are identical, down to flow delays.
        for key in first.raw:
            for a, b in zip(first.raw[key], second.raw[key]):
                assert a == b
                for fid, flow in a.flows.items():
                    assert flow.delays == b.flows[fid].delays

    def test_torn_entry_recomputed(self, tmp_path):
        base = ScenarioConfig(seed=4, **SMALL)
        kwargs = dict(replications=1, processes=1, cache=True,
                      cache_dir=str(tmp_path))
        first = run_sweep(base, "pause_time", [0.0], ["aodv"], **kwargs)
        assert first.cache_misses == 1
        (entry,) = (tmp_path / "sweep").rglob("*.pkl")
        entry.write_bytes(b"not a pickle")
        again = run_sweep(base, "pause_time", [0.0], ["aodv"], **kwargs)
        assert (again.cache_hits, again.cache_misses) == (0, 1)
        assert again.raw == first.raw

    def test_streamed_summaries_never_answer_the_exact_config(self, tmp_path):
        """Streaming stats change what a summary holds (histogram p95,
        no per-flow delay lists), so a store filled by a streaming sweep
        must miss — not hit — for the same scenario measured exactly."""
        exact_cfg = ScenarioConfig(
            protocol="aodv", seed=3, n_nodes=15, field_size=(600.0, 300.0),
            duration=20.0, n_connections=4, traffic_start_window=(0.0, 2.0),
        )
        stream_cfg = exact_cfg.with_(stream_stats=True)
        assert config_cache_key(exact_cfg) != config_cache_key(stream_cfg)

        ex = SweepExecutor(processes=1, cache_dir=str(tmp_path), use_cache=True)
        try:
            (streamed,) = ex.run([stream_cfg])
            (exact,) = ex.run([exact_cfg])
            assert ex.last_cache_hits == 0
            (again,) = ex.run([exact_cfg])
            assert ex.last_cache_hits == 1
        finally:
            ex.close()
        assert streamed.data_received == exact.data_received > 0
        assert all(f.delays == [] for f in streamed.flows.values())
        assert any(f.delays for f in exact.flows.values())
        assert again == exact
        assert again.p95_delay == exact.p95_delay

    def test_env_disables_cache(self, tmp_path, monkeypatch):
        # conftest sets MANETSIM_NO_SWEEP_CACHE=1; cache=None follows it.
        base = ScenarioConfig(seed=5, **SMALL)
        kwargs = dict(replications=1, processes=1, cache=None,
                      cache_dir=str(tmp_path))
        run_sweep(base, "pause_time", [0.0], ["aodv"], **kwargs)
        res = run_sweep(base, "pause_time", [0.0], ["aodv"], **kwargs)
        assert res.cache_hits == 0
        assert not (tmp_path / "sweep").exists()


class TestDispatch:
    def test_processes_env_override(self, monkeypatch):
        monkeypatch.setenv("MANETSIM_PROCESSES", "3")
        assert _resolve_processes(None) == 3
        assert SweepExecutor().processes == 3
        assert _resolve_processes(2) == 2  # explicit arg wins

    def test_invalid_processes_rejected(self):
        with pytest.raises(ValueError):
            _resolve_processes(0)

    def test_serial_dispatch_is_logged(self, monkeypatch):
        # Stub the simulation so this exercises pure dispatch mechanics.
        monkeypatch.setattr(
            "repro.scenario.executor.run_scenario", lambda cfg: cfg.seed
        )
        tracer = Tracer({"sweep"})
        ex = SweepExecutor(processes=1, use_cache=False, tracer=tracer)
        configs = [ScenarioConfig(seed=s, **SMALL) for s in range(1, 10)]
        out = ex.run(configs)
        assert out == list(range(1, 10))  # input order preserved
        kinds = [rec[2] for rec in tracer.filter("sweep")]
        assert "dispatch" in kinds
        assert "serial" in kinds  # processes=1 is explicit, never silent
        assert ex.last_workers == 1
        assert ex.last_chunksize == max(1, len(configs) // 4)

    def test_pool_persists_across_sweeps(self):
        ex = SweepExecutor(processes=2, use_cache=False)
        try:
            configs = [ScenarioConfig(seed=s, **SMALL) for s in (1, 2)]
            ex.run(configs)
            pool = ex._pool
            assert pool is not None
            ex.run(configs)
            assert ex._pool is pool  # same workers, no refork
        finally:
            ex.close()
