"""Registry-backed perf counters: ordering, registration, increments."""

import pytest

from repro.core.perfcounters import (
    PerfCounters,
    register_counter,
    registered_counters,
)

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
    names = registered_counters()
    assert names[: len(KERNEL_ORDER)] == KERNEL_ORDER
    assert tuple(PerfCounters().as_dict())[: len(KERNEL_ORDER)] == KERNEL_ORDER


def test_new_counters_append_after_kernel_set():
    register_counter("zz_test_counter_append")
    names = registered_counters()
    assert names.index("zz_test_counter_append") >= len(KERNEL_ORDER)
    assert list(PerfCounters().as_dict())[-1] != "fanout_cache_hits"


def test_registration_is_idempotent():
    before = registered_counters()
    register_counter("fanout_cache_hits", "attempted re-registration")
    assert registered_counters() == before


def test_invalid_names_rejected():
    with pytest.raises(ValueError):
        register_counter("not a name")
    with pytest.raises(ValueError):
        register_counter("hyphen-ated")


def test_counters_initialise_to_zero_and_add():
    perf = PerfCounters()
    assert all(v == 0 for v in perf.as_dict().values())
    perf.fanout_cache_hits += 3
    perf.fanout_cache_misses += 1
    assert perf.as_dict()["fanout_cache_hits"] == 3
    assert perf.fanout_hit_ratio() == pytest.approx(0.75)


def test_incr_tolerates_late_registration():
    perf = PerfCounters()  # created before the registration below
    register_counter("zz_test_counter_late")
    assert perf.as_dict()["zz_test_counter_late"] == 0
    perf.incr("zz_test_counter_late")
    perf.incr("zz_test_counter_late", 4)
    assert perf.as_dict()["zz_test_counter_late"] == 5
