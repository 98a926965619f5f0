"""CBR sources and connection-pattern generation."""

import pytest

from repro.core import ConfigurationError, RngStreams, Simulator
from repro.mac import IdealMac
from repro.mobility import line_placement
from repro.net import build_network
from repro.phy import RadioParams, UnitDisk
from repro.routing.oracle import OracleRouting
from repro.traffic import CbrSource, generate_connections


def make_pair():
    """Two adjacent nodes with oracle routing over an ideal MAC."""
    sim = Simulator(seed=1)
    agents = []

    def routing_factory(s, nid, mac, rng):
        a = OracleRouting(s, nid, mac, rng, radio_range=250.0)
        agents.append(a)
        return a

    net = build_network(
        sim,
        line_placement(100.0, 2),
        routing_factory=routing_factory,
        mac_factory=lambda s, r, g: IdealMac(s, r),
        propagation=UnitDisk(250.0),
        radio_params=RadioParams(),
    )
    for a in agents:
        a.mobility = net.mobility
    return sim, net


class TestCbrSource:
    def test_rate_and_count(self):
        sim, net = make_pair()
        sent = []
        src = CbrSource(
            sim, net.nodes[0], dst=1, rate=4.0, size=64, flow_id=0,
            start=0.0, stop=10.0, jitter=0.0, on_send=sent.append,
        )
        src.begin()
        sim.run(until=20.0)
        assert src.packets_sent == 40  # 4 pkt/s for 10 s
        assert len(sent) == 40

    def test_sequence_numbers_increment(self):
        sim, net = make_pair()
        sent = []
        src = CbrSource(sim, net.nodes[0], 1, rate=2.0, size=64, flow_id=7,
                        stop=5.0, jitter=0.0, on_send=sent.append)
        src.begin()
        sim.run(until=10.0)
        seqs = [p.payload.seq for p in sent]
        assert seqs == list(range(len(seqs)))
        assert all(p.payload.flow_id == 7 for p in sent)

    def test_start_delay_respected(self):
        sim, net = make_pair()
        sent = []
        src = CbrSource(sim, net.nodes[0], 1, rate=1.0, size=64, flow_id=0,
                        start=5.0, stop=8.0, jitter=0.0, on_send=sent.append)
        src.begin()
        sim.run(until=10.0)
        assert all(p.created >= 5.0 for p in sent)
        assert len(sent) == 3

    def test_jitter_desynchronizes(self):
        sim, net = make_pair()
        times = []
        rng = RngStreams(3).stream("t")
        src = CbrSource(sim, net.nodes[0], 1, rate=10.0, size=64, flow_id=0,
                        stop=5.0, rng=rng, jitter=0.5,
                        on_send=lambda p: times.append(p.created))
        src.begin()
        sim.run(until=6.0)
        gaps = {round(b - a, 6) for a, b in zip(times, times[1:])}
        assert len(gaps) > 1  # gaps vary with jitter

    def test_validation(self):
        sim, net = make_pair()
        with pytest.raises(ConfigurationError):
            CbrSource(sim, net.nodes[0], 1, rate=0.0, size=64, flow_id=0)
        with pytest.raises(ConfigurationError):
            CbrSource(sim, net.nodes[0], 1, rate=1.0, size=0, flow_id=0)
        with pytest.raises(ConfigurationError):
            CbrSource(sim, net.nodes[0], 1, rate=1.0, size=64, flow_id=0,
                      start=10.0, stop=5.0)
        with pytest.raises(ConfigurationError):
            CbrSource(sim, net.nodes[0], 1, rate=1.0, size=64, flow_id=0, jitter=1.5)

    def test_double_start_rejected(self):
        sim, net = make_pair()
        src = CbrSource(sim, net.nodes[0], 1, rate=1.0, size=64, flow_id=0)
        src.begin()
        with pytest.raises(ConfigurationError):
            src.begin()


class TestPatterns:
    def test_basic_generation(self):
        rng = RngStreams(1).stream("pat")
        conns = generate_connections(50, 10, rng)
        assert len(conns) == 10
        assert all(c.src != c.dst for c in conns)
        assert all(0 <= c.src < 50 and 0 <= c.dst < 50 for c in conns)
        assert len({c.flow_id for c in conns}) == 10

    def test_distinct_sources_when_possible(self):
        rng = RngStreams(2).stream("pat")
        conns = generate_connections(50, 10, rng)
        assert len({c.src for c in conns}) == 10

    def test_more_flows_than_nodes_allowed(self):
        rng = RngStreams(3).stream("pat")
        conns = generate_connections(5, 12, rng)
        assert len(conns) == 12

    def test_start_window(self):
        rng = RngStreams(4).stream("pat")
        conns = generate_connections(20, 10, rng, start_window=(10.0, 20.0))
        assert all(10.0 <= c.start <= 20.0 for c in conns)

    def test_validation(self):
        rng = RngStreams(5).stream("pat")
        with pytest.raises(ConfigurationError):
            generate_connections(1, 1, rng)
        with pytest.raises(ConfigurationError):
            generate_connections(10, 0, rng)
        with pytest.raises(ConfigurationError):
            generate_connections(10, 1, rng, start_window=(5.0, 1.0))

    def test_deterministic(self):
        a = generate_connections(30, 8, RngStreams(7).stream("pat"))
        b = generate_connections(30, 8, RngStreams(7).stream("pat"))
        assert a == b
