"""Config/result persistence."""

import csv

import pytest

from repro.core import ConfigurationError
from repro.scenario import ScenarioConfig, run_replications, run_sweep
from repro.scenario.io import (
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
    summaries_to_csv,
    sweep_to_csv,
)

SMALL = dict(
    n_nodes=8, field_size=(500.0, 300.0), duration=15.0,
    n_connections=2, traffic_start_window=(0.0, 3.0),
)


class TestConfigRoundtrip:
    def test_dict_roundtrip_identity(self):
        cfg = ScenarioConfig(
            protocol="dsr", pause_time=30.0, traffic_start_window=(0.0, 30.0)
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_file_roundtrip(self, tmp_path):
        cfg = ScenarioConfig(protocol="cbrp", n_nodes=17, seed=99)
        path = tmp_path / "scenario.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"protocoll": "aodv"})

    @pytest.mark.parametrize("data, key", [
        ({"n_nodes": "50"}, "n_nodes"),
        ({"n_nodes": 50.0}, "n_nodes"),
        ({"field_size": 5}, "field_size"),
        ({"field_size": [1500.0]}, "field_size"),
        ({"field_size": [1500.0, "300"]}, "field_size"),
        ({"use_rtscts": 1}, "use_rtscts"),
        ({"duration": True}, "duration"),
        ({"hello_interval": "1"}, "hello_interval"),
        ({"faults": [0.1]}, "faults"),
        ({"faults": {"blackouts": [[1.0]]}}, "blackouts"),
        ({"faults": {"churn_rate": "0.1"}}, "churn_rate"),
        # Deleted options and model values.
        ({"propagation": "tworay"}, "propagation"),
        ({"traffic_model": "cbr"}, "traffic_model"),
        ({"mobility": "walk"}, "walk"),
    ])
    def test_wrong_value_type_names_the_key(self, data, key):
        with pytest.raises(ConfigurationError, match=key):
            config_from_dict(data)

    def test_json_numbers_and_lists_are_accepted(self):
        cfg = config_from_dict({
            "duration": 30, "field_size": [400, 300.0], "hello_interval": None,
            "faults": {"blackouts": [[1.0, 2.0]]},
        })
        assert cfg.field_size == (400, 300.0)
        assert cfg.faults.blackouts == ((1.0, 2.0),)

    @pytest.mark.parametrize("text", ["{", "[", "{\"seed\": 1,}", "\xff"])
    def test_malformed_file_names_the_file(self, tmp_path, text):
        path = tmp_path / "broken.json"
        path.write_text(text, encoding="latin-1")
        with pytest.raises(ConfigurationError, match="broken.json"):
            load_config(path)

    def test_non_object_file_is_typed_error(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="JSON object"):
            load_config(path)

    def test_loaded_config_reproduces_run(self, tmp_path):
        from repro.scenario import run_scenario

        cfg = ScenarioConfig(protocol="aodv", seed=5, **SMALL)
        path = tmp_path / "c.json"
        save_config(cfg, path)
        a = run_scenario(cfg)
        b = run_scenario(load_config(path))
        assert a.data_received == b.data_received
        assert a.avg_delay == b.avg_delay


class TestCsvExport:
    def test_summaries_csv(self, tmp_path):
        cfg = ScenarioConfig(protocol="aodv", seed=2, **SMALL)
        summaries = run_replications(cfg, 2)
        path = tmp_path / "out.csv"
        summaries_to_csv(summaries, path)
        rows = list(csv.DictReader(open(path)))
        assert len(rows) == 2
        assert rows[0]["protocol"] == "aodv"
        assert float(rows[0]["pdr"]) <= 1.0

    def test_extra_columns(self, tmp_path):
        cfg = ScenarioConfig(protocol="aodv", seed=2, **SMALL)
        summaries = run_replications(cfg, 2)
        path = tmp_path / "out.csv"
        summaries_to_csv(summaries, path, extra={"label": ["a", "b"]})
        rows = list(csv.DictReader(open(path)))
        assert [r["label"] for r in rows] == ["a", "b"]

    def test_extra_length_mismatch(self, tmp_path):
        cfg = ScenarioConfig(protocol="aodv", seed=2, **SMALL)
        summaries = run_replications(cfg, 2)
        with pytest.raises(ConfigurationError):
            summaries_to_csv(summaries, tmp_path / "x.csv", extra={"label": ["a"]})

    def test_sweep_csv(self, tmp_path):
        base = ScenarioConfig(seed=3, **SMALL)
        result = run_sweep(base, "pause_time", [0.0, 10.0], ["aodv"],
                           replications=2, processes=1)
        path = tmp_path / "sweep.csv"
        sweep_to_csv(result, path)
        rows = list(csv.DictReader(open(path)))
        assert len(rows) == 4  # 2 values x 2 replications
        assert {r["pause_time"] for r in rows} == {"0.0", "10.0"}
        assert {r["replication"] for r in rows} == {"0", "1"}

    def test_perf_columns_off_by_default(self, tmp_path):
        cfg = ScenarioConfig(protocol="aodv", seed=2, **SMALL)
        summaries = run_replications(cfg, 1)
        path = tmp_path / "plain.csv"
        summaries_to_csv(summaries, path)
        header = path.read_text().splitlines()[0]
        assert "perf_" not in header
        assert "profile_" not in header

    def test_perf_columns_opt_in(self, tmp_path):
        cfg = ScenarioConfig(protocol="aodv", seed=2, **SMALL)
        summaries = run_replications(cfg, 2)
        path = tmp_path / "perf.csv"
        summaries_to_csv(summaries, path, include_perf=True)
        rows = list(csv.DictReader(open(path)))
        assert "perf_fanout_cache_hits" in rows[0]
        assert int(rows[0]["perf_fanout_cache_hits"]) > 0
        # Registry order is preserved in the header.
        header = path.read_text().splitlines()[0].split(",")
        hits = header.index("perf_fanout_cache_hits")
        misses = header.index("perf_fanout_cache_misses")
        assert hits < misses

    def test_profile_columns_appear_for_profiled_runs(self, tmp_path):
        cfg = ScenarioConfig(protocol="aodv", seed=2, profile=True, **SMALL)
        summaries = run_replications(cfg, 1)
        path = tmp_path / "prof.csv"
        summaries_to_csv(summaries, path, include_perf=True)
        header = path.read_text().splitlines()[0].split(",")
        prof_cols = [c for c in header if c.startswith("profile_")]
        assert {"profile_core_s", "profile_mac_s"} <= set(prof_cols)
        rows = list(csv.DictReader(open(path)))
        assert float(rows[0]["profile_mac_s"]) > 0.0

    def test_sweep_csv_perf_flag(self, tmp_path):
        base = ScenarioConfig(seed=3, **SMALL)
        result = run_sweep(base, "pause_time", [0.0], ["aodv"],
                           replications=1, processes=1)
        path = tmp_path / "sweep_perf.csv"
        sweep_to_csv(result, path, include_perf=True)
        header = path.read_text().splitlines()[0]
        assert "perf_fanout_cache_hits" in header

    def test_perf_columns_render_retired_counters(self, tmp_path):
        import dataclasses

        # A summary stored before the sweep_cache_* counters were
        # retired still carries them in ``perf``: they render as
        # trailing columns, and rows without them read 0.
        cfg = ScenarioConfig(protocol="aodv", seed=2, **SMALL)
        (fresh,) = run_replications(cfg, 1)
        stored = dataclasses.replace(
            fresh, perf={**fresh.perf, "sweep_cache_hits": 4, "sweep_cache_misses": 1}
        )
        path = tmp_path / "old.csv"
        summaries_to_csv([stored, fresh], path, include_perf=True)
        header = path.read_text().splitlines()[0].split(",")
        perf_cols = [c for c in header if c.startswith("perf_")]
        assert perf_cols[-2:] == ["perf_sweep_cache_hits", "perf_sweep_cache_misses"]
        assert perf_cols.index("perf_fanout_cache_hits") == 0
        rows = list(csv.DictReader(open(path)))
        assert [r["perf_sweep_cache_hits"] for r in rows] == ["4", "0"]
        assert [r["perf_sweep_cache_misses"] for r in rows] == ["1", "0"]

    def test_drops_columns_off_by_default(self, tmp_path):
        cfg = ScenarioConfig(protocol="aodv", seed=2, **SMALL)
        summaries = run_replications(cfg, 1)
        path = tmp_path / "plain.csv"
        summaries_to_csv(summaries, path)
        assert "drop_" not in path.read_text().splitlines()[0]

    def test_drops_columns_opt_in(self, tmp_path):
        import dataclasses

        cfg = ScenarioConfig(protocol="aodv", seed=2, **SMALL)
        a, b = run_replications(cfg, 2)
        # Pin a deterministic taxonomy: columns are the sorted union
        # across rows, and rows missing a reason read as zero.
        a = dataclasses.replace(a, drops_by_reason={"no_route": 3})
        b = dataclasses.replace(b, drops_by_reason={"ifq_full": 2})
        path = tmp_path / "drops.csv"
        summaries_to_csv([a, b], path, include_drops=True)
        rows = list(csv.DictReader(open(path)))
        assert [r["drop_no_route"] for r in rows] == ["3", "0"]
        assert [r["drop_ifq_full"] for r in rows] == ["0", "2"]
        header = path.read_text().splitlines()[0].split(",")
        drop_cols = [c for c in header if c.startswith("drop_")]
        assert drop_cols == sorted(drop_cols)

    def test_sweep_csv_drops_flag(self, tmp_path):
        base = ScenarioConfig(seed=3, **SMALL)
        result = run_sweep(base, "pause_time", [0.0], ["aodv"],
                           replications=1, processes=1)
        plain = tmp_path / "sweep_plain.csv"
        sweep_to_csv(result, plain)
        assert "drop_" not in plain.read_text().splitlines()[0]
        opted = tmp_path / "sweep_drops.csv"
        sweep_to_csv(result, opted, include_drops=True)
        rows = list(csv.DictReader(open(opted)))
        # Columns appear iff some row recorded that reason; every cell
        # is a parseable count either way.
        for row in rows:
            for col, value in row.items():
                if col.startswith("drop_"):
                    assert int(value) >= 0
