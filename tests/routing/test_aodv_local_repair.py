"""AODV local repair (RFC 3561 §6.12 extension)."""

import pytest

from repro.routing.aodv import Aodv
from tests.routing.conftest import collect_deliveries, make_static_network

# Diamond with a long tail: 0 - 1 - {2a,2b} - 3; repair happens at 1.
TOPO = [
    (0.0, 0.0),      # 0 source
    (200.0, 0.0),    # 1 repairing node
    (400.0, 80.0),   # 2 upper relay
    (400.0, -80.0),  # 3 lower relay
    (600.0, 0.0),    # 4 destination
]


def make_net(local_repair, seed=1):
    return make_static_network(
        TOPO,
        lambda s, n, m, r: Aodv(s, n, m, r, local_repair=local_repair),
        mac="dcf",
        seed=seed,
    )


def kill(node):
    node.mac.send = lambda *a, **k: None
    node.radio.begin_arrival = lambda *a, **k: None


def active_relay(net):
    return net.nodes[1].routing.table[4].next_hop


class TestLocalRepair:
    def test_repair_bridges_broken_relay(self):
        sim, net = make_net(local_repair=True)
        log = collect_deliveries(net)
        net.nodes[0].send(4, 64)
        sim.run(until=3.0)
        assert len(log) == 1

        relay = active_relay(net)
        kill(net.nodes[relay])
        net.nodes[0].send(4, 64)
        sim.run(until=30.0)
        agent1 = net.nodes[1].routing
        assert agent1.repairs_attempted >= 1
        assert agent1.repairs_succeeded >= 1
        assert len(log) == 2, "repaired route must deliver the second packet"

    def test_without_repair_transit_packet_dropped(self):
        sim, net = make_net(local_repair=False)
        log = collect_deliveries(net)
        net.nodes[0].send(4, 64)
        sim.run(until=3.0)
        relay = active_relay(net)
        kill(net.nodes[relay])
        net.nodes[0].send(4, 64)
        sim.run(until=30.0)
        agent1 = net.nodes[1].routing
        assert agent1.repairs_attempted == 0
        # The in-flight packet died at node 1 (counted as no-route drop);
        # the *source* may re-discover later packets, but this one is gone
        # unless the RERR beat it back (it cannot: it was already at 1).
        assert agent1.stats.drops_no_route >= 1

    def test_failed_repair_sends_rerr_and_drops(self):
        # No alternate relay: kill the only path.
        sim, net = make_static_network(
            [(0.0, 0.0), (200.0, 0.0), (400.0, 0.0), (600.0, 0.0)],
            lambda s, n, m, r: Aodv(s, n, m, r, local_repair=True),
            seed=3,
        )
        log = collect_deliveries(net)
        net.nodes[0].send(3, 64)
        sim.run(until=3.0)
        kill(net.nodes[2])
        net.nodes[0].send(3, 64)
        sim.run(until=30.0)
        agent1 = net.nodes[1].routing
        assert agent1.repairs_attempted >= 1
        assert agent1.repairs_succeeded == 0
        assert agent1.stats.drops_buffer >= 1
        # Source learned the route is dead.
        r0 = net.nodes[0].routing.table.get(3)
        assert r0 is None or not r0.valid or r0.next_hop != 1 or len(log) == 1


class TestTraceIntegration:
    def test_route_trace_records_control_and_data(self):
        from repro.scenario import ScenarioConfig, build_scenario

        cfg = ScenarioConfig(
            protocol="aodv",
            n_nodes=8,
            field_size=(500.0, 300.0),
            duration=20.0,
            n_connections=2,
            traffic_start_window=(0.0, 2.0),
            flight_trace=True,
            seed=5,
        )
        summary = build_scenario(cfg).run()
        kinds = {e["ev"] for e in summary.flight["events"]}
        assert "route_tx" in kinds  # data leaving its source
        assert "forward" in kinds  # ... and relayed by another node
        assert summary.routing_overhead_packets > 0

    def test_no_trace_by_default(self):
        from repro.scenario import ScenarioConfig, build_scenario
        from repro.scenario.options import EngineOptions

        cfg = ScenarioConfig(
            protocol="aodv",
            n_nodes=8,
            field_size=(500.0, 300.0),
            duration=10.0,
            n_connections=2,
            traffic_start_window=(0.0, 2.0),
            seed=5,
        )
        # Explicit options: MANETSIM_FLIGHT=1 (a CI leg) attaches one.
        scen = build_scenario(cfg, EngineOptions())
        summary = scen.run()
        assert scen.sim.flight is None
        assert summary.flight is None
