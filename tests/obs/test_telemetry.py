"""Telemetry recorder: schema, sampling cadence, ring bound, export."""

import math

import pytest

from repro.obs.telemetry import (
    TELEMETRY_SCHEMA,
    TELEMETRY_SCHEMA_VERSION,
    TelemetryRecorder,
    load_telemetry_jsonl,
    validate_sample,
)
from repro.scenario.build import build_scenario
from repro.scenario.config import ScenarioConfig

SMALL = dict(
    protocol="aodv",
    n_nodes=8,
    field_size=(300.0, 300.0),
    duration=12.0,
    n_connections=3,
    rate=2.0,
    packet_size=64,
    traffic_start_window=(0.0, 2.0),
    seed=7,
)


def _scenario(**over):
    return build_scenario(ScenarioConfig(**{**SMALL, **over}))


def test_config_wires_recorder_only_when_enabled():
    off = _scenario()
    assert off.telemetry is None
    on = _scenario(telemetry_interval=2.0)
    assert on.telemetry is not None
    assert on.telemetry.interval == 2.0


def test_samples_match_schema_and_cadence():
    scenario = _scenario(telemetry_interval=2.0)
    scenario.run()
    samples = list(scenario.telemetry.samples)
    # duration 12 at interval 2 -> probes at t=2,4,...,12.
    assert len(samples) == 6
    for s in samples:
        validate_sample(s)
    ts = [s["t"] for s in samples]
    assert ts == sorted(ts)
    assert ts[0] == pytest.approx(2.0)


def test_samples_observe_live_state():
    scenario = _scenario(telemetry_interval=2.0)
    scenario.run()
    samples = list(scenario.telemetry.samples)
    # Mid-run the network has routed traffic: state shows up.
    assert any(s["route_entries_total"] > 0 for s in samples)
    assert any(s["events_scheduled"] > 0 for s in samples)
    assert all(s["energy_j"] >= 0.0 for s in samples)
    last = samples[-1]
    # events_scheduled is monotone.
    sched = [s["events_scheduled"] for s in samples]
    assert sched == sorted(sched)
    # Perf deltas are per-interval, not cumulative: their sum can't
    # exceed the final counter values.
    hits = sum(s["perf"]["fanout_cache_hits"] for s in samples)
    assert 0 < hits <= scenario.sim.perf.fanout_cache_hits
    assert last["nodes_faulted"] == 0


@pytest.mark.parametrize(
    "protocol, hello", [("aodv", 1.0), ("paodv", 1.0), ("cbrp", None)]
)
def test_samples_observe_neighbor_tables(protocol, hello):
    # Every HELLO-keeping agent's neighbour table is counted, whatever
    # the protocol (AODV/PAODV keep one only with hello_interval set).
    scenario = _scenario(
        protocol=protocol, n_nodes=15, hello_interval=hello,
        telemetry_interval=5.0,
    )
    scenario.run()
    assert all(
        s["neighbor_entries_total"] > 0 for s in scenario.telemetry.samples
    )
    tables = [n.routing.neighbors for n in scenario.network.nodes]
    assert sum(len(t) for t in tables) > 0


def test_ring_buffer_bounds_samples():
    scenario = _scenario()
    rec = TelemetryRecorder(
        scenario.sim, scenario.network, interval=1.0, capacity=3
    )
    for _ in range(5):
        rec.sample()
    assert len(rec.samples) == 3
    assert rec.dropped == 2


def test_invalid_intervals_rejected():
    scenario = _scenario()
    with pytest.raises(ValueError):
        TelemetryRecorder(scenario.sim, scenario.network, interval=0.0)
    with pytest.raises(ValueError):
        TelemetryRecorder(
            scenario.sim, scenario.network, interval=1.0, capacity=0
        )
    with pytest.raises(Exception):
        ScenarioConfig(**{**SMALL, "telemetry_interval": -1.0})


def test_validate_sample_rejects_drift():
    scenario = _scenario(telemetry_interval=4.0)
    scenario.run()
    sample = dict(scenario.telemetry.samples[0])
    sample["bogus"] = 1
    with pytest.raises(ValueError):
        validate_sample(sample)
    sample = dict(scenario.telemetry.samples[0])
    del sample["energy_j"]
    with pytest.raises(ValueError):
        validate_sample(sample)
    sample = dict(scenario.telemetry.samples[0])
    sample["ifq_depth_total"] = "lots"
    with pytest.raises(ValueError):
        validate_sample(sample)


def test_jsonl_roundtrip(tmp_path):
    scenario = _scenario(telemetry_interval=3.0)
    scenario.run()
    out = tmp_path / "tele.jsonl"
    n = scenario.telemetry.write_jsonl(out)
    assert n == len(scenario.telemetry.samples)
    loaded = load_telemetry_jsonl(out)
    assert loaded == list(scenario.telemetry.samples)


class TestSchemaV2:
    def test_header_line_declares_version(self, tmp_path):
        scenario = _scenario(telemetry_interval=3.0)
        scenario.run()
        out = tmp_path / "tele.jsonl"
        scenario.telemetry.write_jsonl(out)
        import json

        first = json.loads(out.read_text().splitlines()[0])
        assert first == {"telemetry_schema": TELEMETRY_SCHEMA_VERSION}
        assert TELEMETRY_SCHEMA_VERSION == 2

    def test_samples_carry_drops_total(self):
        assert TELEMETRY_SCHEMA["drops_total"] is int
        scenario = _scenario(telemetry_interval=2.0)
        scenario.run()
        totals = [s["drops_total"] for s in scenario.telemetry.samples]
        # Cumulative pressure counter: monotone, never negative.
        assert all(t >= 0 for t in totals)
        assert totals == sorted(totals)

    def test_v1_files_migrate_on_load(self, tmp_path):
        # A v1 file has no header line and no drops_total field; the
        # loader backfills drops_total = 0 so old captures stay usable.
        import json

        scenario = _scenario(telemetry_interval=4.0)
        scenario.run()
        v1 = tmp_path / "v1.jsonl"
        with open(v1, "w") as fh:
            for s in scenario.telemetry.samples:
                old = {k: v for k, v in s.items() if k != "drops_total"}
                fh.write(json.dumps(old) + "\n")
        loaded = load_telemetry_jsonl(v1)
        assert len(loaded) == len(scenario.telemetry.samples)
        assert all(s["drops_total"] == 0 for s in loaded)
        for s in loaded:
            validate_sample(s)

    def test_newer_writers_tolerated(self, tmp_path):
        # A hypothetical v3 writer adds fields this reader has never
        # heard of; they are dropped, not fatal (forward tolerance).
        import json

        scenario = _scenario(telemetry_interval=4.0)
        scenario.run()
        v3 = tmp_path / "v3.jsonl"
        with open(v3, "w") as fh:
            fh.write(json.dumps({"telemetry_schema": 3}) + "\n")
            for s in scenario.telemetry.samples:
                fh.write(json.dumps({**s, "novel_probe": 1.5}) + "\n")
        loaded = load_telemetry_jsonl(v3)
        assert loaded == list(scenario.telemetry.samples)
        assert all("novel_probe" not in s for s in loaded)


def test_csv_export_flattens_perf(tmp_path):
    scenario = _scenario(telemetry_interval=3.0)
    scenario.run()
    out = tmp_path / "tele.csv"
    scenario.telemetry.write_csv(out)
    header = out.read_text().splitlines()[0].split(",")
    plain = [k for k in TELEMETRY_SCHEMA if k != "perf"]
    for key in plain:
        assert key in header
    assert any(col.startswith("perf_") for col in header)


def test_telemetry_counter_lands_in_summary_perf():
    scenario = _scenario(telemetry_interval=2.0)
    summary = scenario.run()
    assert summary.perf["telemetry_samples"] == 6


def test_energy_probe_uses_airtime(tmp_path):
    scenario = _scenario(telemetry_interval=2.0)
    scenario.run()
    energies = [s["energy_j"] for s in scenario.telemetry.samples]
    assert all(math.isfinite(e) for e in energies)
    # Cumulative by construction.
    assert energies == sorted(energies)
