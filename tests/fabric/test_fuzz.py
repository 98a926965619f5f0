"""Fuzz the JSON input surfaces: only typed errors may come out.

Configs (files, ``POST /sweep``, fabric leases), summaries (the result
store, fabric result and point frames) and raw frames are decoded from
bytes nobody vouches for. Whatever arrives, the decoders answer with
a value or a :class:`ConfigurationError` / :class:`FabricError` —
never a ``TypeError``, ``KeyError`` or ``RecursionError`` traceback —
and the store answers a garbage entry with a miss.
"""

import dataclasses
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError, FabricError
from repro.fabric.protocol import decode_frame
from repro.fabric.store import ResultStore
from repro.faults.plan import FaultPlanConfig
from repro.scenario import ScenarioConfig
from repro.scenario.io import config_from_dict, config_to_dict
from repro.stats.metrics import FlowStats, MetricsSummary

KEY = "cd" + "0" * 62

FUZZ = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

scalars = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _canon(obj: dict) -> str:
    """Comparable JSON text (NaN never equals itself as a float)."""
    return json.dumps(obj, sort_keys=True)


def _names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def _mutated(base: dict, names):
    """*base* with some keys replaced, dropped or added."""
    edits = st.dictionaries(
        st.sampled_from(names) | st.text(max_size=6), json_values, max_size=3
    )
    drops = st.lists(st.sampled_from(sorted(base)), max_size=2)
    return st.builds(
        lambda e, d: {k: v for k, v in {**base, **e}.items() if k not in d},
        edits, drops,
    )


CONFIG = config_to_dict(ScenarioConfig(
    faults=FaultPlanConfig(churn_rate=0.01, blackouts=((1.0, 2.0),))
))
SUMMARY = MetricsSummary(
    protocol="aodv", duration=5.0, data_sent=4, data_received=3, pdr=0.75,
    avg_delay=0.01, p95_delay=0.02, avg_hops=1.5, throughput_bps=1e3,
    routing_overhead_packets=7, routing_overhead_bytes=300,
    normalized_routing_load=2.3, mac_overhead_frames=9,
    normalized_mac_load=3.0, drops_no_route=1, drops_buffer=0,
    drops_ifq=0, drops_retry=0, mac_collisions=2,
    flows={0: FlowStats(0, 1, 2, 4, 3, [0.01, 0.02, 0.03])},
    perf={"events": 10}, profile={"event-loop": {"calls": 1, "self_s": 0.1}},
    drops_by_reason={"no_route": 1}, flight={"offered": 4},
).to_dict()

config_inputs = (
    json_values
    | _mutated(CONFIG, _names(ScenarioConfig))
    | _mutated(CONFIG["faults"], _names(FaultPlanConfig)).map(
        lambda plan: {**CONFIG, "faults": plan})
)
summary_inputs = (
    json_values
    | _mutated(SUMMARY, _names(MetricsSummary))
    | _mutated(SUMMARY["flows"][0], _names(FlowStats)).map(
        lambda flow: {**SUMMARY, "flows": {"0": flow}})
    | st.dictionaries(json_values.map(str), json_values, max_size=2).map(
        lambda flows: {**SUMMARY, "flows": flows})
)


@FUZZ
@given(config_inputs)
def test_config_from_dict_raises_only_configuration_errors(data):
    try:
        cfg = config_from_dict(data)
    except ConfigurationError:
        return
    again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
    assert _canon(config_to_dict(again)) == _canon(config_to_dict(cfg))


@FUZZ
@given(summary_inputs)
def test_summary_from_dict_raises_only_configuration_errors(data):
    try:
        summary = MetricsSummary.from_dict(data)
    except ConfigurationError:
        return
    again = MetricsSummary.from_dict(json.loads(json.dumps(summary.to_dict())))
    assert _canon(again.to_dict()) == _canon(summary.to_dict())


@FUZZ
@given(st.binary(max_size=64) | json_values.map(lambda v: json.dumps(v).encode()))
def test_decode_frame_raises_only_fabric_errors(line):
    try:
        msg = decode_frame(line)
    except FabricError:
        return
    assert isinstance(msg, dict)


#: Store keys: the real one, near misses of its shape, and paths.
store_keys = (
    st.just(KEY)
    | st.text(alphabet="0123456789abcdefABCDEF./\\\n", min_size=62, max_size=66)
    | st.text(max_size=70)
    | st.sampled_from(["../" + KEY, KEY[:2] + "/../" + KEY[6:], "..", "/"])
)


@FUZZ
@given(
    st.binary(max_size=64)
    | summary_inputs.map(lambda v: json.dumps(v).encode()),
    store_keys,
)
def test_store_answers_garbage_with_a_miss(tmp_path, blob, key):
    store = ResultStore(tmp_path)
    entry = store._path(KEY)
    entry.parent.mkdir(parents=True, exist_ok=True)
    entry.write_bytes(blob)
    got = store.get(key)
    if key != KEY:
        # Not a config key: a miss that reads and heals nothing.
        assert got is None
        assert entry.read_bytes() == blob
        return
    try:
        want = MetricsSummary.from_dict(json.loads(blob))
    except (ValueError, ConfigurationError):
        assert got is None
        assert not entry.exists()  # healed
    else:
        assert _canon(got.to_dict()) == _canon(want.to_dict())
