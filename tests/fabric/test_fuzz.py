"""Fuzz the JSON input surfaces: only typed errors may come out.

Configs (files, ``POST /sweep``, fabric leases), summaries (the result
store, fabric result and point frames) and raw frames are decoded from
bytes nobody vouches for. Whatever arrives, the decoders answer with
a value or a :class:`ConfigurationError` / :class:`FabricError` —
never a ``TypeError``, ``KeyError`` or ``RecursionError`` traceback —
and the store answers a garbage entry with a miss.
"""

import dataclasses
import hashlib
import http.client
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError, FabricError
from repro.fabric.broker import _sweep_options
from repro.fabric.protocol import FabricProtocolError, decode_frame
from repro.fabric.store import ResultStore
from repro.faults.plan import FaultPlanConfig
from repro.scenario import ScenarioConfig
from repro.scenario.io import config_from_dict, config_to_dict
from repro.stats.metrics import FlowStats, MetricsSummary
from tests.fabric.conftest import SMALL

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
    faults=FaultPlanConfig(churn_rate=0.01, partitions=((1.0, 2.0, 750.0),))
))
SUMMARY = MetricsSummary(
    protocol="aodv", duration=5.0, data_sent=4, data_received=3, pdr=0.75,
    avg_delay=0.01, p95_delay=0.02, avg_hops=1.5, throughput_bps=1e3,
    routing_overhead_packets=7, routing_overhead_bytes=300,
    normalized_routing_load=2.3, mac_overhead_frames=9,
    normalized_mac_load=3.0, drops_no_route=1, drops_buffer=0,
    drops_ifq=0, drops_retry=0, mac_collisions=2,
    flows={0: FlowStats(0, 1, 2, 4, 3, [0.01, 0.02, 0.03])},
    perf={"events": 10}, profile={"core": {"calls": 1, "self_s": 0.1}},
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


def _sealed(payload: bytes) -> bytes:
    """*payload* as the store lays it down: its sha256 line, then it."""
    return hashlib.sha256(payload).hexdigest().encode() + b"\n" + payload


@FUZZ
@given(
    st.binary(max_size=64)
    | summary_inputs.map(lambda v: json.dumps(v).encode()),
    st.booleans(),
    store_keys,
)
def test_store_answers_garbage_with_a_miss(tmp_path, payload, sealed, key):
    store = ResultStore(tmp_path)
    entry = store._path(KEY)
    entry.parent.mkdir(parents=True, exist_ok=True)
    blob = _sealed(payload) if sealed else payload
    entry.write_bytes(blob)
    got = store.get(key)
    if key != KEY:
        # Not a config key: a miss that reads and heals nothing.
        assert got is None
        assert entry.read_bytes() == blob
        return
    try:
        if not sealed:
            raise ValueError("no hash line")
        want = MetricsSummary.from_dict(json.loads(payload))
    except (ValueError, ConfigurationError):
        assert got is None
        assert not entry.exists()  # healed
    else:
        assert _canon(got.to_dict()) == _canon(want.to_dict())


@FUZZ
@given(st.data())
def test_store_heals_an_entry_with_a_flipped_digit(tmp_path, data):
    store = ResultStore(tmp_path)
    assert store.put(KEY, MetricsSummary.from_dict(SUMMARY))
    entry = store._path(KEY)
    digest, payload = entry.read_bytes().split(b"\n", 1)
    # Digits of the numbers: a JSON number follows ':', ',' or '['.
    digits = [
        i for m in re.finditer(rb"[:,\[](-?[0-9.eE+-]+)", payload)
        for i in range(m.start(1), m.end(1)) if payload[i:i + 1].isdigit()
    ]
    i = data.draw(st.sampled_from(digits))
    new = data.draw(st.sampled_from(
        [d for d in b"0123456789" if d != payload[i]]))
    entry.write_bytes(digest + b"\n" + payload[:i] + bytes([new]) + payload[i + 1:])
    assert store.get(KEY) is None
    assert not entry.exists()  # healed


@pytest.mark.parametrize("options", [
    {"job_timeout": "soon"}, {"job_timeout": 0}, {"job_timeout": -1.5},
    {"job_timeout": float("nan")}, {"job_timeout": float("inf")},
    {"job_timeout": True}, {"max_retries": "2"}, {"max_retries": -1},
    {"max_retries": 1.5}, {"max_retries": True}, [1], "fast",
])
def test_sweep_options_refuse_what_a_worker_cannot_read(options):
    with pytest.raises(FabricProtocolError):
        _sweep_options(options)


def test_sweep_options_accept_null_and_sane_values():
    assert _sweep_options(None) == (None, None)
    assert _sweep_options({"job_timeout": None, "max_retries": None}) == (None, None)
    assert _sweep_options({"job_timeout": 2, "max_retries": 0}) == (0, 2)


def _post_sweep(broker, body: dict):
    conn = http.client.HTTPConnection(broker.host, broker.port, timeout=60.0)
    try:
        conn.request("POST", "/sweep", json.dumps(body).encode(),
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def test_post_sweep_with_a_string_timeout_is_400_and_spares_the_worker(
    tmp_path, broker_factory, thread_worker
):
    broker = broker_factory(cache_dir=str(tmp_path / "fleet"))
    worker = thread_worker(broker.address)
    config = config_to_dict(ScenarioConfig(**SMALL))
    status, raw = _post_sweep(
        broker, {"config": config, "options": {"job_timeout": "soon"}}
    )
    assert status == 400
    assert "job_timeout" in json.loads(raw)["error"]
    assert not broker.jobs  # nothing was queued for a worker to lease
    status, raw = _post_sweep(
        broker, {"config": config, "options": {"job_timeout": 60}}
    )
    assert status == 200
    lines = [json.loads(line) for line in raw.splitlines()]
    assert [m["type"] for m in lines if m["type"] == "point"] == ["point"]
    assert broker.counters["jobs_executed"] == 1
    assert worker.is_alive()
