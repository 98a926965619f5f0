"""Scenario config validation, building, determinism, sweeps."""

import pytest

from repro.core import ConfigurationError
from repro.scenario import (
    MOBILITY_MODELS,
    ScenarioConfig,
    build_scenario,
    run_replications,
    run_scenario,
    run_sweep,
    sweep_configs,
)

SMALL = dict(
    n_nodes=10,
    field_size=(500.0, 300.0),
    duration=30.0,
    n_connections=3,
    traffic_start_window=(0.0, 5.0),
)


class TestConfig:
    def test_defaults_are_paper_base(self):
        cfg = ScenarioConfig()
        assert cfg.n_nodes == 50
        assert cfg.field_size == (1500.0, 300.0)
        assert cfg.max_speed == 20.0
        assert cfg.rate == 4.0
        assert cfg.duration == 900.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(protocol="ospf")
        with pytest.raises(ConfigurationError):
            ScenarioConfig(mobility="teleport")
        with pytest.raises(ConfigurationError):
            ScenarioConfig(mac="tdma")
        with pytest.raises(ConfigurationError):
            ScenarioConfig(n_nodes=1)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(duration=0)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(pause_time=-1)

    def test_with_creates_modified_copy(self):
        a = ScenarioConfig()
        b = a.with_(protocol="dsr", pause_time=30.0)
        assert b.protocol == "dsr" and b.pause_time == 30.0
        assert a.protocol == "aodv"

    def test_run_seed_differs_by_replication(self):
        a = ScenarioConfig(seed=1, replication=0)
        b = ScenarioConfig(seed=1, replication=1)
        assert a.run_seed != b.run_seed


class TestBuild:
    @pytest.mark.parametrize("protocol", ["dsdv", "dsr", "aodv", "paodv", "cbrp", "olsr", "flooding", "oracle"])
    def test_every_protocol_builds_and_runs(self, protocol):
        cfg = ScenarioConfig(protocol=protocol, seed=2, **SMALL)
        s = run_scenario(cfg)
        assert s.protocol == protocol
        assert s.data_sent > 0

    @pytest.mark.parametrize("mobility", MOBILITY_MODELS)
    def test_every_mobility_builds(self, mobility):
        cfg = ScenarioConfig(mobility=mobility, seed=3, **SMALL)
        s = run_scenario(cfg)
        assert s.data_sent > 0

    def test_ideal_mac_builds(self):
        cfg = ScenarioConfig(mac="ideal", protocol="olsr", seed=5, **SMALL)
        s = run_scenario(cfg)
        assert s.data_sent > 0

    def test_dsr_mac_is_promiscuous(self):
        scen = build_scenario(ScenarioConfig(protocol="dsr", seed=7, **SMALL))
        assert all(n.mac.promiscuous for n in scen.network.nodes)

    def test_aodv_mac_not_promiscuous(self):
        scen = build_scenario(ScenarioConfig(protocol="aodv", seed=7, **SMALL))
        assert all(not n.mac.promiscuous for n in scen.network.nodes)


class TestDeterminism:
    def test_same_config_same_results(self):
        cfg = ScenarioConfig(protocol="aodv", seed=11, **SMALL)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a.data_sent == b.data_sent
        assert a.data_received == b.data_received
        assert a.avg_delay == b.avg_delay
        assert a.routing_overhead_packets == b.routing_overhead_packets

    def test_replications_differ(self):
        cfg = ScenarioConfig(protocol="aodv", seed=11, **SMALL)
        rs = run_replications(cfg, 2)
        # Different seeds -> different traffic patterns -> different counts.
        assert (rs[0].data_sent, rs[0].data_received) != (
            rs[1].data_sent,
            rs[1].data_received,
        )


class TestSweep:
    def test_sweep_configs_grid(self):
        base = ScenarioConfig(seed=1, **SMALL)
        jobs = sweep_configs(base, "pause_time", [0.0, 30.0], ["aodv", "dsr"], 2)
        assert len(jobs) == 2 * 2 * 2
        protos = {cfg.protocol for _p, cfg in jobs}
        assert protos == {"aodv", "dsr"}

    def test_run_sweep_inline(self):
        base = ScenarioConfig(seed=1, **SMALL)
        res = run_sweep(
            base, "pause_time", [0.0], ["aodv"], replications=2, processes=1
        )
        assert res.xs == [0.0]
        est = res.estimate("aodv", 0.0, "pdr")
        assert est.n == 2
        assert 0.0 <= est.mean <= 1.0
        assert len(res.series("aodv", "pdr")) == 1

    def test_run_sweep_parallel(self):
        base = ScenarioConfig(seed=1, **SMALL)
        res = run_sweep(
            base, "pause_time", [0.0, 10.0], ["aodv"], replications=1, processes=2
        )
        assert len(res.series("aodv", "pdr")) == 2

    def test_parallel_matches_inline(self):
        base = ScenarioConfig(seed=2, **SMALL)
        inline = run_sweep(base, "pause_time", [0.0], ["dsdv"], 1, processes=1)
        par = run_sweep(base, "pause_time", [0.0], ["dsdv"], 1, processes=2)
        assert inline.estimate("dsdv", 0.0, "pdr").mean == pytest.approx(
            par.estimate("dsdv", 0.0, "pdr").mean
        )
