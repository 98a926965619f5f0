"""FaultManager behaviour against real (small) scenarios."""

import copy

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, FaultInjectionError
from repro.faults.plan import FaultPlanConfig
from repro.scenario import ScenarioConfig, build_scenario, run_scenario

SMALL = dict(
    n_nodes=8,
    field_size=(500.0, 300.0),
    duration=20.0,
    n_connections=3,
    traffic_start_window=(0.0, 2.0),
)

CHURN = FaultPlanConfig(churn_rate=0.05, mean_downtime=5.0)


def faulted(seed=7, plan=CHURN, **over):
    kwargs = dict(SMALL)
    kwargs.update(over)
    return ScenarioConfig(seed=seed, faults=plan, **kwargs)


class TestConfigWiring:
    def test_none_plan_builds_no_manager(self):
        scn = build_scenario(ScenarioConfig(seed=1, **SMALL))
        assert scn.faults is None
        assert scn.network.channel.fault_hook is None

    def test_plan_builds_manager_and_hook(self):
        scn = build_scenario(faulted())
        assert scn.faults is not None
        assert scn.network.channel.fault_hook is scn.faults

    def test_dict_plan_is_coerced(self):
        cfg = ScenarioConfig(seed=1, faults={"link_loss": 0.1}, **SMALL)
        assert isinstance(cfg.faults, FaultPlanConfig)
        assert cfg.faults.link_loss == 0.1

    def test_bad_plan_type_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(seed=1, faults=42, **SMALL)

    def test_double_start_rejected(self):
        scn = build_scenario(faulted())
        scn.faults.start()
        with pytest.raises(FaultInjectionError):
            scn.faults.start()


class TestChurn:
    def test_seeded_churn_is_reproducible(self):
        a = run_scenario(faulted())
        b = run_scenario(faulted())
        assert a == b
        for fid, flow in a.flows.items():
            assert flow.delays == b.flows[fid].delays

    def test_churn_crashes_and_accounts(self):
        s = run_scenario(faulted())
        assert s.fault_crashes > 0
        assert s.fault_downtime > 0.0
        # Downtime is bounded by nodes x duration.
        assert s.fault_downtime <= SMALL["n_nodes"] * SMALL["duration"]

    def test_crash_semantics(self):
        scn = build_scenario(faulted())
        mgr = scn.faults
        node = scn.network.nodes[0]
        scn.network.start_routing()
        mgr._crash(0)
        assert node.radio.is_down
        assert not node.routing.alive
        assert len(node.mac.ifq) == 0
        # Idempotent: a second crash of a down node changes nothing.
        crashes = mgr.stats.crashes
        mgr._crash(0)
        assert mgr.stats.crashes == crashes
        # Recovery restores liveness and records the latency.
        scn.sim._now = 4.0
        mgr._recover(0)
        assert not node.radio.is_down
        assert node.routing.alive
        assert mgr.stats.recovery_latencies == [4.0]

    def test_crashed_receiver_counts_its_lost_arrivals(self):
        # Deafness lives in the PHY: arrivals at a receiver the manager
        # crashed reach the ledger, which counts them in the radio's own
        # RadioStats, and the summary's packets-lost reads the radios.
        scn = build_scenario(faulted(plan=FaultPlanConfig(), mobility="static"))
        scn.sim.schedule_at(0.0, scn.faults._crash, 0)
        summary = scn.run()
        radios = [node.radio for node in scn.network.nodes]
        down_rx = sum(r.stats.down_rx_drops for r in radios)
        assert radios[0].stats.down_rx_drops > 0
        assert down_rx == radios[0].stats.down_rx_drops
        assert summary.fault_packets_lost == down_rx + sum(
            r.stats.down_tx_drops for r in radios
        )

    def test_crash_of_unknown_node_rejected(self):
        scn = build_scenario(faulted())
        with pytest.raises(FaultInjectionError):
            scn.faults._crash(99)

    def test_churn_window_respected(self, monkeypatch):
        # Churn runs over the whole scenario and never past its end.
        plan = CHURN.with_(churn_rate=0.2, mean_downtime=1.0)
        scn = build_scenario(faulted(plan=plan))
        crash_times = []
        real_crash = scn.faults._crash

        def spy(node_id):
            crash_times.append(scn.sim.now)
            real_crash(node_id)

        monkeypatch.setattr(scn.faults, "_crash", spy)
        summary = scn.run()
        assert summary.fault_crashes == len(crash_times) > 0
        assert all(0.0 < t < SMALL["duration"] for t in crash_times)


class TestLinkImpairment:
    def test_link_loss_degrades_delivery(self):
        clean = run_scenario(ScenarioConfig(seed=7, **SMALL))
        lossy = run_scenario(faulted(plan=FaultPlanConfig(link_loss=0.3)))
        assert lossy.pdr < clean.pdr
        assert lossy.fault_packets_lost > 0

    def test_full_loss_equals_blackout_delivery(self):
        s = run_scenario(faulted(plan=FaultPlanConfig(link_loss=1.0)))
        assert s.data_received == 0

    def test_partition_cuts_crossing_links(self):
        # Split the field down the middle for the entire run: traffic
        # whose endpoints land on opposite sides cannot be delivered.
        plan = FaultPlanConfig(
            partitions=((0.0, SMALL["duration"], SMALL["field_size"][0] / 2),)
        )
        scn = build_scenario(faulted(plan=plan, mobility="static"))
        summary = scn.run()
        assert scn.faults.stats.partition_drops > 0
        positions = scn.network.mobility.positions(0.0)
        split = SMALL["field_size"][0] / 2
        for flow in summary.flows.values():
            src_side = positions[flow.src, 0] < split
            dst_side = positions[flow.dst, 0] < split
            if src_side != dst_side:
                assert flow.received == 0

    def test_filter_preserves_target_order(self):
        scn = build_scenario(faulted(plan=FaultPlanConfig(link_loss=0.5)))
        mgr = scn.faults
        # A crashed receiver is kept (the PHY makes it deaf) and
        # consumes no draw.
        mgr._crash(3)
        ids = np.arange(1, 8, dtype=np.intp)
        draws = copy.deepcopy(mgr._link_rng)
        keep = mgr.filter_targets_array(0, ids, 1.0)
        kept = ids[keep].tolist()
        assert kept == sorted(kept)  # order preserved, only thinned
        assert 3 in kept
        # One draw per surviving candidate, in receiver order.
        expected = [
            nid for nid in ids.tolist()
            if nid == 3 or not draws.random() < 0.5
        ]
        assert kept == expected
        assert mgr._link_rng.random() == draws.random()


class TestSummaryAccounting:
    def test_no_fault_summary_has_zero_fault_fields(self):
        s = run_scenario(ScenarioConfig(seed=7, **SMALL))
        assert s.fault_crashes == 0
        assert s.fault_downtime == 0.0
        assert s.fault_recovery_latency == 0.0
        assert s.fault_packets_lost == 0

    def test_crash_queue_counts_each_wiped_packet_once(self, monkeypatch):
        """A crash wipes the node's interface queue; each data packet
        in it is one ``crash_queue`` drop, counted by the ledger alone
        (nothing folds a second count in after the run)."""
        from repro.mac.ifq import InterfaceQueue

        wiped = []
        clear = InterfaceQueue.clear

        def counting_clear(ifq):
            lost = clear(ifq)
            wiped.extend(lost)
            return lost

        monkeypatch.setattr(InterfaceQueue, "clear", counting_clear)
        s = run_scenario(faulted(
            seed=1, plan=FaultPlanConfig(churn_rate=0.1, mean_downtime=3.0),
            n_nodes=10, field_size=(600.0, 300.0), duration=10.0,
            n_connections=8, rate=60.0, packet_size=1024, flight=True,
        ))
        assert wiped and all(pkt.is_data for pkt, _nh in wiped)
        assert s.drops_by_reason["crash_queue"] == len(wiped)
        assert s.flight["drops_by_reason"]["crash_queue"] <= len(wiped)

    def test_io_round_trip_with_faults(self):
        from repro.scenario.io import config_from_dict, config_to_dict

        cfg = faulted(plan=CHURN.with_(link_loss=0.05))
        data = config_to_dict(cfg)
        assert data["faults"]["link_loss"] == 0.05
        assert config_from_dict(data) == cfg

    def test_io_round_trip_without_faults(self):
        from repro.scenario.io import config_from_dict, config_to_dict

        cfg = ScenarioConfig(seed=7, **SMALL)
        data = config_to_dict(cfg)
        assert data["faults"] is None
        assert config_from_dict(data) == cfg
