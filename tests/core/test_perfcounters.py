"""The fixed perf-counter block: ordering, increments, and that every
layer built on its own counts into a block of its own."""

import pytest

from repro.core.events import EventQueue, TimerWheel
from repro.core.perfcounters import COUNTERS, PerfCounters
from repro.mobility.manager import MobilityManager
from repro.mobility.static import StaticPosition

#: BENCH_kernel.json and the CLI tables rely on this exact prefix order.
KERNEL_ORDER = (
    "fanout_cache_hits",
    "fanout_cache_misses",
    "batch_position_evals",
    "scalar_position_evals",
    "segment_refreshes",
    "grid_rebuilds",
    "grid_incremental_updates",
    "heap_compactions",
    "events_pooled",
)


def test_kernel_counters_keep_historical_order():
    assert COUNTERS[: len(KERNEL_ORDER)] == KERNEL_ORDER
    assert len(COUNTERS) == 16 and COUNTERS[-1] == "telemetry_samples"
    assert tuple(PerfCounters().as_dict()) == COUNTERS


def test_counters_initialise_to_zero_and_add():
    perf = PerfCounters()
    assert all(v == 0 for v in perf.as_dict().values())
    perf.fanout_cache_hits += 3
    perf.fanout_cache_misses += 1
    assert perf.as_dict()["fanout_cache_hits"] == 3
    assert perf.fanout_hit_ratio() == pytest.approx(0.75)


def test_block_is_fixed():
    with pytest.raises(AttributeError):
        PerfCounters().not_a_counter = 1


def test_standalone_layers_count_without_wiring():
    queue = EventQueue()
    events = [queue.push(1.0 + i, lambda: None) for i in range(200)]
    for ev in events:
        ev.cancel()
    assert queue.perf.heap_compactions >= 1

    wheel = TimerWheel(EventQueue())
    wheel.schedule(1.0, lambda: None)
    wheel.schedule(1.0, lambda: None)
    assert wheel.perf.mac_timer_events == 2
    assert wheel.perf.mac_wheel_sentinels == 1

    mobility = MobilityManager([StaticPosition(0.0, 0.0), StaticPosition(5.0, 0.0)])
    mobility.positions(0.0)
    assert mobility.perf.batch_position_evals == 2
    assert mobility.perf.segment_refreshes == 2
