"""Shared test environment guards."""

import pytest


@pytest.fixture(autouse=True)
def _isolated_sweep_cache(monkeypatch):
    # Keep sweep runs hermetic: no cross-test cache hits, and nothing
    # written into the repo tree. Tests that exercise the cache opt in
    # with run_sweep(cache=True, cache_dir=tmp_path).
    monkeypatch.setenv("MANETSIM_NO_SWEEP_CACHE", "1")


@pytest.fixture
def make_summary():
    """Factory for small valid summaries, for stubs that stand in for
    ``run_scenario`` (results must survive the store and the fabric,
    which carry only real ``MetricsSummary`` objects)."""
    from repro.stats.metrics import FlowStats, MetricsSummary

    def make(seed=1, **changes):
        fields = dict(
            protocol="aodv", duration=5.0, data_sent=10, data_received=seed,
            pdr=seed / 10, avg_delay=0.01, p95_delay=0.02, avg_hops=2.0,
            throughput_bps=1e4, routing_overhead_packets=5,
            routing_overhead_bytes=500, normalized_routing_load=0.6,
            mac_overhead_frames=20, normalized_mac_load=2.5,
            drops_no_route=0, drops_buffer=0, drops_ifq=0, drops_retry=0,
            mac_collisions=0,
            flows={seed: FlowStats(seed, 0, 1, 10, seed, [0.01] * seed)},
        )
        fields.update(changes)
        return MetricsSummary(**fields)

    return make
