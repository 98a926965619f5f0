"""Sharded-engine behaviour: guards, modes, merging, fallback."""

import pytest

from repro.scenario import ScenarioConfig, run_scenario
from repro.shard import ShardError, ShardUnsupported, run_sharded

#: Four radio-disjoint clusters at the paper's node density; every
#: island test in this file shards this field.
CLUSTERED = dict(
    n_nodes=80,
    field_size=(3000.0, 300.0),
    mobility="static",
    placement="clusters",
    n_clusters=4,
    cluster_gap=700.0,
    duration=15.0,
    n_connections=8,
    traffic_start_window=(0.0, 4.0),
)


def _clustered(protocol="aodv", **over):
    merged = {**CLUSTERED, "seed": 3, **over}
    return ScenarioConfig(protocol=protocol, **merged)


class TestGuards:
    def test_rejects_single_shard(self):
        with pytest.raises(ShardError, match="n_shards"):
            run_sharded(_clustered(), 1)

    def test_rejects_mobile_scenarios(self):
        cfg = ScenarioConfig(
            protocol="aodv", n_nodes=20, mobility="waypoint", duration=10.0,
            traffic_start_window=(0.0, 2.0), seed=1,
        )
        with pytest.raises(ShardUnsupported, match="static"):
            run_sharded(cfg, 2)

    def test_rejects_ideal_mac(self):
        cfg = _clustered(mac="ideal")
        with pytest.raises(ShardUnsupported, match="dcf"):
            run_sharded(cfg, 2)

    def test_rejects_profiling(self):
        with pytest.raises(ShardUnsupported, match="profil"):
            run_sharded(_clustered(profile=True), 2)

    def test_rejects_coupled_field_by_default(self):
        cfg = ScenarioConfig(
            protocol="aodv", n_nodes=30, mobility="static", duration=10.0,
            traffic_start_window=(0.0, 2.0), seed=7,
        )
        with pytest.raises(ShardUnsupported, match="radio-disjoint"):
            run_sharded(cfg, 2)

    def test_bad_exec_mode(self):
        with pytest.raises(ShardError, match="inline"):
            run_sharded(_clustered(), 2, exec_mode="threads")


class TestFallback:
    def test_run_scenario_falls_back_silently(self, monkeypatch):
        """Unsupported configs run the single loop under MANETSIM_SHARDS."""
        monkeypatch.delenv("MANETSIM_SHARD_STRICT", raising=False)
        cfg = ScenarioConfig(
            protocol="aodv", n_nodes=12, mobility="waypoint", duration=10.0,
            n_connections=3, traffic_start_window=(0.0, 2.0), seed=1,
        )
        assert run_scenario(cfg, shards=2) == run_scenario(cfg, shards=1)

    def test_strict_mode_raises(self, monkeypatch):
        monkeypatch.setenv("MANETSIM_SHARD_STRICT", "1")
        cfg = ScenarioConfig(
            protocol="aodv", n_nodes=12, mobility="waypoint", duration=10.0,
            n_connections=3, traffic_start_window=(0.0, 2.0), seed=1,
        )
        with pytest.raises(ShardUnsupported):
            run_scenario(cfg, shards=2)

    def test_env_var_selects_shard_count(self, monkeypatch):
        monkeypatch.setenv("MANETSIM_SHARDS", "2")
        cfg = _clustered()
        assert run_scenario(cfg) == run_scenario(cfg, shards=1)


class TestIslandIdentity:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_inline_matches_single_loop(self, n_shards):
        cfg = _clustered()
        single = run_scenario(cfg, shards=1)
        sharded = run_sharded(cfg, n_shards, exec_mode="inline")
        assert sharded == single
        assert set(sharded.flows) == set(single.flows)
        for fid, flow in sharded.flows.items():
            assert flow.delays == single.flows[fid].delays

    def test_process_matches_single_loop(self):
        cfg = _clustered()
        single = run_scenario(cfg, shards=1)
        sharded = run_sharded(cfg, 4, exec_mode="process")
        assert sharded == single

    def test_auto_mode_matches(self):
        cfg = _clustered(protocol="dsr")
        assert run_sharded(cfg, 4) == run_scenario(cfg, shards=1)

    def test_perf_counters_cover_the_fleet(self):
        """Merged perf totals must count every shard's engine work."""
        cfg = _clustered()
        single = run_scenario(cfg, shards=1)
        sharded = run_sharded(cfg, 4, exec_mode="inline")
        assert sharded.perf["phy_batch_arrivals"] > 0
        # Ghost nodes neither transmit nor receive, so fleet totals
        # match the single loop's count exactly.
        assert (
            sharded.perf["phy_batch_arrivals"]
            == single.perf["phy_batch_arrivals"]
        )


class TestTripwire:
    @pytest.mark.parametrize("exec_mode", ["inline", "process"])
    def test_border_transmission_raises(self, monkeypatch, exec_mode):
        """A transmission that crosses a cut is a ShardError, never a
        silently wrong answer: hand the engine a coupled plan dressed
        up as an island plan."""
        import dataclasses
        import math

        from repro.shard import engine as engine_mod

        make_plan = engine_mod.make_plan

        def lying_plan(*args):
            plan = make_plan(*args)
            assert not plan.island
            return dataclasses.replace(plan, min_cross_gap=math.inf)

        monkeypatch.setattr(engine_mod, "make_plan", lying_plan)
        cfg = ScenarioConfig(
            protocol="aodv", n_nodes=30, mobility="static", duration=10.0,
            n_connections=4, traffic_start_window=(0.0, 3.0), seed=7,
        )
        with pytest.raises(ShardError, match="partition violated"):
            run_sharded(cfg, 2, exec_mode=exec_mode)
