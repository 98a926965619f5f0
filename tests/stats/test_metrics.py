"""Metrics collection and aggregation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.scenario import ScenarioConfig, run_scenario
from repro.stats import (
    MetricsCollector,
    PointEstimate,
    aggregate_rows,
    estimate,
    t_quantile,
)


def run_small(protocol="aodv", seed=2, **kw):
    cfg = ScenarioConfig(
        protocol=protocol,
        n_nodes=12,
        field_size=(600.0, 300.0),
        duration=40.0,
        n_connections=4,
        traffic_start_window=(0.0, 5.0),
        seed=seed,
        **kw,
    )
    return run_scenario(cfg)


class TestSummaryInvariants:
    def test_conservation_received_le_sent(self):
        s = run_small()
        assert 0 <= s.data_received <= s.data_sent
        assert 0.0 <= s.pdr <= 1.0

    def test_flow_totals_match_global(self):
        s = run_small(seed=3)
        assert sum(f.sent for f in s.flows.values()) == s.data_sent
        assert sum(f.received for f in s.flows.values()) == s.data_received

    def test_delays_nonnegative(self):
        s = run_small(seed=4)
        assert s.avg_delay >= 0.0
        assert s.p95_delay >= s.avg_delay * 0.5  # p95 can't be wildly below mean

    def test_throughput_consistent_with_received(self):
        s = run_small(seed=5)
        # 64-byte payloads: throughput = received * 64 * 8 / duration.
        expected = s.data_received * 64 * 8 / s.duration
        assert s.throughput_bps == pytest.approx(expected, rel=0.01)

    def test_nrl_matches_ratio(self):
        s = run_small(seed=6)
        if s.data_received:
            assert s.normalized_routing_load == pytest.approx(
                s.routing_overhead_packets / s.data_received
            )

    def test_mac_load_ge_nrl(self):
        s = run_small(seed=7)
        assert s.normalized_mac_load >= s.normalized_routing_load

    def test_oracle_zero_overhead(self):
        s = run_small(protocol="oracle", seed=8)
        assert s.routing_overhead_packets == 0
        assert s.normalized_routing_load == 0.0

    def test_row_keys(self):
        s = run_small(seed=9)
        row = s.row()
        assert set(row) == {
            "pdr", "avg_delay", "nrl", "mac_load",
            "overhead_pkts", "throughput_bps", "avg_hops",
        }


def _digest(summary) -> str:
    """sha256 of the results (what benchmarks/perf/child.py digests)."""
    import dataclasses
    import hashlib
    import json

    fields = dataclasses.asdict(summary)
    for engine_side in ("perf", "profile", "flight"):
        fields.pop(engine_side)
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


class TestSummaryCodec:
    @pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
    @pytest.mark.parametrize("protocol", ["dsdv", "dsr", "aodv", "paodv", "cbrp"])
    def test_json_round_trip_is_exact(self, protocol, trace):
        import json

        from repro.stats.metrics import MetricsSummary

        s = run_small(protocol, flight_trace=trace)
        back = MetricsSummary.from_dict(json.loads(json.dumps(s.to_dict())))
        assert back == s
        assert all(type(fid) is int for fid in back.flows)
        assert _digest(back) == _digest(s)
        assert (back.perf, back.flight) == (s.perf, s.flight)

    def test_absent_defaulted_fields_take_their_defaults(self):
        from repro.stats.metrics import MetricsSummary

        s = run_small()
        data = s.to_dict()
        for name in ("fault_crashes", "flows", "perf", "flight"):
            del data[name]
        back = MetricsSummary.from_dict(data)
        assert (back.fault_crashes, back.flows, back.flight) == (0, {}, None)

    @pytest.mark.parametrize("change, needle", [
        ({"bogus": 1}, "bogus"),
        ({"data_sent": "10"}, "data_sent"),
        ({"data_sent": 10.0}, "data_sent"),
        ({"pdr": True}, "pdr"),
        ({"flows": {"x": {}}}, "flows"),
        ({"flows": {"01": {"flow_id": 1, "src": 0, "dst": 1}}}, "flows"),
        ({"flows": {"1": {"flow_id": 1, "src": 0}}}, "dst"),
        ({"flows": {"1": {"flow_id": 1, "src": 0, "dst": 1,
                          "delays": ["0.1"]}}}, "flows"),
        ({"perf": {"events": 1.5}}, "perf"),
        ({"flight": []}, "flight"),
    ])
    def test_invalid_input_is_a_configuration_error(self, change, needle):
        from repro.core import ConfigurationError
        from repro.stats.metrics import MetricsSummary

        data = dict(run_small().to_dict(), **change)
        with pytest.raises(ConfigurationError, match=needle):
            MetricsSummary.from_dict(data)

    def test_missing_required_field_is_named(self):
        from repro.core import ConfigurationError
        from repro.stats.metrics import MetricsSummary

        data = run_small().to_dict()
        del data["avg_delay"]
        with pytest.raises(ConfigurationError, match="avg_delay"):
            MetricsSummary.from_dict(data)


class TestCollectorUnit:
    def test_duplicate_deliveries_counted_once(self):
        from repro.core import Simulator
        from repro.net import Packet, PacketKind
        from repro.traffic.cbr import FlowPayload

        c = MetricsCollector("test")

        class FakeSim:
            now = 1.0

        c._sim = FakeSim()
        pkt = Packet(PacketKind.DATA, "cbr", 0, 1, 64, created=0.5,
                     payload=FlowPayload(0, 0))
        c.flow(0, 0, 1)
        c.on_send(pkt)
        c.on_receive(pkt, prev_hop=0)
        c.on_receive(pkt, prev_hop=0)  # duplicate
        assert c.data_received == 1

    def test_non_cbr_packets_ignored(self):
        from repro.net import Packet, PacketKind

        c = MetricsCollector("test")

        class FakeSim:
            now = 1.0

        c._sim = FakeSim()
        ctrl = Packet(PacketKind.CONTROL, "aodv", 0, 1, 24, created=0.0)
        c.on_receive(ctrl, prev_hop=0)
        assert c.data_received == 0

    def test_finish_without_deliveries_is_zero(self):
        from types import SimpleNamespace

        s = MetricsCollector("test").finish(SimpleNamespace(nodes=[]), 10.0)
        assert (s.data_sent, s.data_received) == (0, 0)
        assert (s.pdr, s.avg_delay, s.p95_delay, s.avg_hops) == (0, 0, 0, 0)
        assert s.normalized_routing_load == 0.0
        assert s.normalized_mac_load == 0.0
        assert s.drops_by_reason == {}


class TestAggregation:
    def test_estimate_mean(self):
        e = estimate([1.0, 2.0, 3.0])
        assert e.mean == pytest.approx(2.0)
        assert e.n == 3
        assert e.half_width > 0

    def test_single_value_no_ci(self):
        e = estimate([5.0])
        assert e.mean == 5.0
        assert math.isnan(e.half_width)

    def test_empty(self):
        e = estimate([])
        assert math.isnan(e.mean) and e.n == 0

    def test_nonfinite_filtered(self):
        e = estimate([1.0, float("inf"), 2.0, float("nan")])
        assert e.mean == pytest.approx(1.5)
        assert e.n == 2

    def test_t_quantile_matches_scipy(self):
        from scipy import stats as st_

        assert t_quantile(0.95, 4) == pytest.approx(st_.t.ppf(0.975, 4))

    def test_aggregate_rows(self):
        rows = [{"pdr": 0.9, "nrl": 1.0}, {"pdr": 0.8, "nrl": 2.0}]
        agg = aggregate_rows(rows)
        assert agg["pdr"].mean == pytest.approx(0.85)
        assert agg["nrl"].mean == pytest.approx(1.5)

    def test_point_estimate_str(self):
        assert "±" in str(PointEstimate(1.0, 0.1, 3))
        assert "±" not in str(PointEstimate(1.0, float("nan"), 1))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=20))
    def test_ci_contains_mean_property(self, values):
        e = estimate(values)
        arr = np.asarray(values)
        assert e.mean == pytest.approx(float(arr.mean()), abs=1e-6, rel=1e-6)
        assert e.half_width >= 0 or math.isnan(e.half_width)
