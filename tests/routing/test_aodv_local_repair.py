"""AODV link breaks at a transit node, and the route trace.

The paper's AODV has no local repair (RFC 3561 §6.12): a relay that
loses its next hop drops the transit packet and errors upstream.
"""

from repro.routing.aodv import Aodv
from tests.routing.conftest import collect_deliveries, make_static_network

# Diamond with a long tail: 0 - 1 - {2a,2b} - 3; the break is seen at 1.
TOPO = [
    (0.0, 0.0),      # 0 source
    (200.0, 0.0),    # 1 relay that loses its next hop
    (400.0, 80.0),   # 2 upper relay
    (400.0, -80.0),  # 3 lower relay
    (600.0, 0.0),    # 4 destination
]


def kill(node):
    node.mac.send = lambda *a, **k: None
    node.radio.power_off()


class TestTransitLinkBreak:
    def test_transit_packet_dropped_no_route_and_rerr_upstream(self):
        sim, net = make_static_network(TOPO, Aodv, mac="dcf", seed=1)
        log = collect_deliveries(net)
        net.nodes[0].send(4, 64)
        sim.run(until=3.0)
        assert len(log) == 1
        agent1 = net.nodes[1].routing
        relay = agent1.table[4].next_hop
        rerrs = []
        send_rerr = agent1._send_rerr
        agent1._send_rerr = lambda dests: (rerrs.append(dests), send_rerr(dests))

        kill(net.nodes[relay])
        net.nodes[0].send(4, 64)
        sim.run(until=30.0)
        # The crash took effect: the dead radio swallowed arrivals.
        net.channel.flush_phy_stats()
        assert net.nodes[relay].radio.stats.down_rx_drops > 0
        # The in-flight packet died at node 1 as a no-route drop, and
        # node 1 errored the destination upstream to its precursor 0.
        assert len(log) == 1
        assert agent1.stats.drops_no_route >= 1
        assert any(dst == 4 for dests in rerrs for dst, _seq in dests)
        assert not net.nodes[0].routing.table[4].valid


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
