"""PAODV: preemption threshold, warnings, preemptive discovery."""

import pytest

from repro.core import Simulator
from repro.mac import DcfMac
from repro.mobility import Field, StaticPosition
from repro.net.stack import build_network
from repro.phy import RadioParams, TwoRayGround
from repro.routing.paodv import (
    Paodv,
    Pwarn,
    default_preempt_threshold,
)
from tests.routing.conftest import collect_deliveries


def make_tworay_net(positions, seed=1, threshold=None):
    """PAODV over TwoRayGround so rx power varies with distance."""
    sim = Simulator(seed=seed)
    models = [StaticPosition(x, y) for x, y in positions]

    def routing_factory(s, nid, mac, rng):
        return Paodv(s, nid, mac, rng, preempt_threshold=threshold)

    def mac_factory(s, radio, rng):
        return DcfMac(s, radio, rng)

    net = build_network(
        sim,
        models,
        routing_factory=routing_factory,
        mac_factory=mac_factory,
        propagation=TwoRayGround(),
        radio_params=RadioParams(),
    )
    net.start_routing()
    return sim, net


class TestThreshold:
    def test_default_threshold_at_95pct_range(self):
        th = default_preempt_threshold()
        model = TwoRayGround()
        p = RadioParams()
        # Power at 212.5 m is above RX threshold but below power at 200 m.
        assert th > p.rx_threshold
        assert th == pytest.approx(model.rx_power(p.tx_power, 0.95 * 250.0), rel=1e-2)

    def test_threshold_scales_with_ratio(self):
        assert default_preempt_threshold(ratio=0.5) > default_preempt_threshold(ratio=0.9)


class TestWarning:
    def test_strong_link_no_warning(self):
        # 100 m links: rx power well above the 212 m preempt threshold.
        sim, net = make_tworay_net([(0, 0), (100, 0), (200, 0)])
        log = collect_deliveries(net)
        net.nodes[0].send(2, 64)
        sim.run(until=5.0)
        assert len(log) == 1
        assert all(n.routing.warnings_sent == 0 for n in net.nodes)

    def test_weak_link_triggers_warning_and_discovery(self):
        # 240 m hops: beyond 85% of 250 m -> every data frame warns.
        sim, net = make_tworay_net([(0, 0), (240, 0), (480, 0)])
        log = collect_deliveries(net)
        net.nodes[0].send(2, 64)
        sim.run(until=5.0)
        assert len(log) == 1
        # The intermediate (1) or destination (2) detected weakness.
        warners = [n.node_id for n in net.nodes if n.routing.warnings_sent > 0]
        assert warners
        assert net.nodes[0].routing.preemptive_discoveries >= 1

    def test_warning_rate_limited(self):
        sim, net = make_tworay_net([(0, 0), (240, 0)])
        collect_deliveries(net)
        for _ in range(10):
            net.nodes[0].send(1, 64)
        sim.run(until=2.0)  # all within one WARN_INTERVAL
        assert net.nodes[1].routing.warnings_sent <= 1

    def test_source_does_not_warn_itself(self):
        sim, net = make_tworay_net([(0, 0), (240, 0)])
        collect_deliveries(net)
        net.nodes[0].send(1, 64)
        sim.run(until=5.0)
        # Node 1 (dst) may warn; node 0 (src) must not.
        assert net.nodes[0].routing.warnings_sent == 0


class TestPwarnRelay:
    def test_pwarn_relayed_toward_source(self):
        sim, net = make_tworay_net([(0, 0), (200, 0), (440, 0)])
        log = collect_deliveries(net)
        net.nodes[0].send(2, 64)
        sim.run(until=5.0)
        # Link 1->2 is 240 m: node 2 warns; warning must traverse node 1.
        assert len(log) == 1
        assert net.nodes[2].routing.warnings_sent == 1
        assert net.nodes[0].routing.preemptive_discoveries == 1

    def test_route_survives_preemptive_refresh(self):
        sim, net = make_tworay_net([(0, 0), (200, 0), (440, 0)])
        log = collect_deliveries(net)
        net.nodes[0].send(2, 64)
        sim.run(until=5.0)
        net.nodes[0].send(2, 64)
        sim.run(until=10.0)
        assert len(log) == 2
        route = net.nodes[0].routing.table[2]
        assert route.valid


class TestDeliveryStillWorks:
    def test_multi_hop_chain(self):
        sim, net = make_tworay_net([(0, 0), (200, 0), (400, 0), (600, 0)])
        log = collect_deliveries(net)
        net.nodes[0].send(3, 64)
        sim.run(until=10.0)
        assert [(nid, p.src) for nid, p, _ in log] == [(3, 0)]
