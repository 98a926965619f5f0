"""Stress scenarios: sustained mobility, load, determinism."""

from repro.scenario import ScenarioConfig, run_scenario

BASE = dict(
    n_nodes=18,
    field_size=(900.0, 300.0),
    duration=50.0,
    n_connections=5,
    traffic_start_window=(0.0, 8.0),
    max_speed=20.0,
)


def test_large_packets():
    """512-byte packets (the paper's alternate size) still flow."""
    s = run_scenario(ScenarioConfig(protocol="aodv", packet_size=512, seed=23, **BASE))
    assert s.pdr > 0.7
    assert s.throughput_bps > 0


def test_high_rate_saturation_degrades_gracefully():
    """At 40 pkt/s x 5 flows the medium saturates: delivery drops but
    the simulation completes and conservation holds."""
    s = run_scenario(ScenarioConfig(protocol="aodv", rate=40.0, seed=24, **BASE))
    assert 0.0 < s.pdr <= 1.0
    assert s.drops_ifq + s.drops_retry + s.drops_no_route + s.drops_buffer >= 0
    assert s.data_received <= s.data_sent


def test_cross_protocol_determinism_under_mobility():
    """Two identical mobile runs agree bit-for-bit on every metric."""
    for proto in ("dsr", "cbrp", "olsr"):
        cfg = ScenarioConfig(protocol=proto, seed=25, **BASE)
        a, b = run_scenario(cfg), run_scenario(cfg)
        assert a.row() == b.row(), proto


def test_min_speed_respected():
    cfg = {**BASE, "max_speed": 10.0}
    s = run_scenario(ScenarioConfig(protocol="aodv", min_speed=5.0, seed=26, **cfg))
    assert s.data_sent > 0


def test_two_node_minimal_network():
    s = run_scenario(ScenarioConfig(
        protocol="aodv", n_nodes=2, field_size=(200.0, 200.0),
        duration=20.0, n_connections=1, traffic_start_window=(0.0, 2.0),
        seed=27,
    ))
    assert s.pdr > 0.9  # always in range in a 200 m box
