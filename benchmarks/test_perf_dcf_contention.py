"""DCF contention microbenchmark: the shared arena in isolation.

``test_perf_large_scenario`` pays routing and a sparse multi-cell
field; this bench does the opposite — one saturated collision domain,
so nearly every simulated microsecond is spent in the contention
machine the arena inlines: freeze/credit on busy edges, NAV wake
timers, DIFS/backoff resumes, and end-of-frame medium resolution.

Topology: ~20 nodes inside a single 200 m × 200 m cell (everyone
carrier-senses everyone), CBR load well past the cell's capacity so
the interface queues never drain and every frame end is a resume
storm.
"""

from repro.scenario import ScenarioConfig, run_scenario

_CFG = dict(
    protocol="aodv",
    n_nodes=20,
    field_size=(200.0, 200.0),
    mobility="static",
    duration=5.0,
    n_connections=20,
    rate=80.0,
    packet_size=256,
    traffic_start_window=(0.0, 0.5),
    seed=11,
)


def _run():
    return run_scenario(ScenarioConfig(**_CFG))


def test_perf_dcf_contention(benchmark):
    """Arena engine: heap timers + batched medium-edge resolution."""
    summary = benchmark.pedantic(_run, rounds=3, iterations=1)
    assert summary.data_sent > 0
    # The cell is overloaded by construction; if delivery were clean
    # the bench would no longer be measuring contention.
    assert summary.pdr < 0.9
