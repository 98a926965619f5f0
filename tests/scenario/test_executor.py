"""The persistent sweep executor: dispatch + on-disk cache."""

import pytest

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
        (entry,) = (tmp_path / "sweep").rglob("*.json")
        entry.write_bytes(b"not a summary")
        again = run_sweep(base, "pause_time", [0.0], ["aodv"], **kwargs)
        assert (again.cache_hits, again.cache_misses) == (0, 1)
        assert again.raw == first.raw

    def test_default_executor_cache_dir_applies_per_call(self, tmp_path):
        from pathlib import Path

        from repro.scenario.executor import default_executor

        first = default_executor(processes=1, cache_dir=str(tmp_path))
        assert first.manifest_path == tmp_path / "manifest.json"
        second = default_executor(processes=1)  # none passed: the default
        assert second is first
        assert second.manifest_path == Path(".manetsim-cache/manifest.json")

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
        ex = SweepExecutor(processes=1, use_cache=False)
        configs = [ScenarioConfig(seed=s, **SMALL) for s in range(1, 10)]
        out = ex.run(configs)
        assert out == list(range(1, 10))  # input order preserved
        assert ex._slots == []  # processes=1 ran inline, no slot forked
        # ... and the manifest says so: never a silent fallback.
        manifest = ex.last_manifest
        assert manifest["workers"] == 1
        assert (manifest["jobs_total"], manifest["jobs_executed"]) == (9, 9)
        assert manifest["jobs_from_cache"] == 0

    def test_pool_persists_across_sweeps(self):
        ex = SweepExecutor(processes=2, use_cache=False)
        try:
            configs = [ScenarioConfig(seed=s, **SMALL) for s in (1, 2)]
            ex.run(configs)
            slots = list(ex._slots)
            pids = [slot._proc.pid for slot in slots]
            assert len(slots) == 2 and None not in pids
            ex.run(configs)
            assert ex._slots == slots  # same slots ...
            assert [slot._proc.pid for slot in slots] == pids  # ... no refork
        finally:
            ex.close()
