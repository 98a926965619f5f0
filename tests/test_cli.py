"""Command-line interface."""

import pytest

from repro.cli import build_parser, main

FAST = [
    "--nodes", "10", "--field", "600", "300", "--duration", "20",
    "--sources", "3", "--seed", "2",
]


def test_run_command(capsys):
    assert main(["run", "--protocol", "aodv", *FAST]) == 0
    out = capsys.readouterr().out
    assert "AODV results" in out
    assert "packet delivery ratio" in out


def test_compare_command(capsys):
    assert main(["compare", "--protocols", "dsdv", "aodv", *FAST]) == 0
    out = capsys.readouterr().out
    assert "dsdv" in out and "aodv" in out
    assert "normalized routing load" in out


def test_sweep_command(capsys):
    assert main([
        "sweep", "--param", "pause_time", "--values", "0", "20",
        "--protocols", "aodv", "--metric", "pdr", "--processes", "1", *FAST,
    ]) == 0
    out = capsys.readouterr().out
    assert "pdr vs pause_time" in out


def test_sweep_integer_param(capsys):
    assert main([
        "sweep", "--param", "n_nodes", "--values", "8", "12",
        "--protocols", "aodv", "--processes", "1", *FAST,
    ]) == 0
    assert "n_nodes" in capsys.readouterr().out


def test_protocols_command(capsys):
    assert main(["protocols"]) == 0
    out = capsys.readouterr().out
    for name in ("dsdv", "dsr", "aodv", "paodv", "cbrp", "olsr"):
        assert name in out


def test_unknown_protocol_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--protocol", "rip"])


def test_refused_config_value_is_a_one_line_usage_error(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text('{"seed": -5}')
    plan = tmp_path / "plan.json"
    plan.write_text('{"blackouts": [[1.0, 2.0]]}')
    torn = tmp_path / "torn.json"
    torn.write_text('{"churn_rate": 0.01,')
    missing = tmp_path / "missing.json"
    for args, key in (
        (["--duration", "-5"], "duration"),
        (["--config", str(config)], "seed"),
        (["--faults", str(plan), *FAST], "blackouts"),
        (["--faults", str(torn), *FAST], "torn.json: not a JSON fault plan"),
        (["--faults", str(missing), *FAST], "missing.json: cannot read fault plan"),
        (["--config", str(missing)], "missing.json: cannot read config"),
    ):
        assert main(["run", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and key in err
        assert len(err.splitlines()) == 1


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_no_rtscts_flag(capsys):
    assert main(["run", "--protocol", "aodv", "--no-rtscts", *FAST]) == 0


def test_save_and_reload_config(tmp_path, capsys):
    cfg_path = tmp_path / "scn.json"
    assert main(["run", "--protocol", "aodv", "--save-config", str(cfg_path), *FAST]) == 0
    assert cfg_path.exists()
    assert main(["run", "--protocol", "dsdv", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "DSDV results" in out


def test_sweep_csv_export(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--param", "pause_time", "--values", "0",
        "--protocols", "aodv", "--processes", "1", "--csv", str(csv_path), *FAST,
    ]) == 0
    assert csv_path.exists()
    assert "pause_time" in csv_path.read_text().splitlines()[0]


def test_run_perf_reports_peak_rss(capsys, monkeypatch):
    assert main(["run", "--protocol", "aodv", "--perf", *FAST]) == 0
    out = capsys.readouterr().out
    assert "Engine counters" in out
    (row,) = [line for line in out.splitlines() if line.startswith("peak RSS (MB)")]
    assert float(row.split("|")[1]) > 1.0
    # Where the platform has no ``resource`` module the row is left out.
    import repro.cli as cli

    monkeypatch.setattr(cli, "resource", None)
    assert main(["run", "--protocol", "aodv", "--perf", *FAST]) == 0
    out = capsys.readouterr().out
    assert "fanout hit ratio" in out
    assert "peak RSS" not in out


def test_run_profile_flag(capsys):
    assert main(["run", "--protocol", "aodv", "--profile", *FAST]) == 0
    out = capsys.readouterr().out
    assert "Profile (wall time)" in out
    assert "core/mac" in out


def test_run_profile_out_and_obs_report(tmp_path, capsys):
    prof = tmp_path / "profile.json"
    assert main([
        "run", "--protocol", "aodv", "--profile-out", str(prof), *FAST,
    ]) == 0
    assert prof.exists()
    capsys.readouterr()
    assert main(["obs", "report", str(prof)]) == 0
    out = capsys.readouterr().out
    assert "core/mac" in out and "self %" in out


def test_sweep_progress_and_manifest(tmp_path, capsys, monkeypatch):
    # The manifest is published at the root of the result store, so
    # this test opts back into the cache (hermetic: cwd is a tmp dir).
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MANETSIM_NO_SWEEP_CACHE", "0")
    assert main([
        "sweep", "--param", "pause_time", "--values", "0",
        "--protocols", "aodv", "--processes", "1", "--progress", *FAST,
    ]) == 0
    captured = capsys.readouterr()
    assert "sweep 1/1" in captured.err
    assert "[manifest: " in captured.out
    capsys.readouterr()
    manifest = tmp_path / ".manetsim-cache" / "manifest.json"
    assert manifest.exists()
    assert main(["obs", "report", str(manifest)]) == 0
    assert "jobs total" in capsys.readouterr().out


def test_sweep_perf_csv_columns(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--param", "pause_time", "--values", "0",
        "--protocols", "aodv", "--processes", "1", "--perf",
        "--csv", str(csv_path), *FAST,
    ]) == 0
    assert "perf_fanout_cache_hits" in csv_path.read_text().splitlines()[0]


def test_obs_report_rejects_garbage(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"hello": 1}')
    assert main(["obs", "report", str(bogus)]) == 1
    assert "neither" in capsys.readouterr().err


def test_run_flight_prints_conservation(capsys):
    assert main(["run", "--protocol", "aodv", "--flight", *FAST]) == 0
    out = capsys.readouterr().out
    assert "Packet conservation" in out
    assert "conserved" in out
    assert "unaccounted" in out


def test_run_flight_artifacts_and_obs_trace(tmp_path, capsys):
    import json

    trace = tmp_path / "flight.jsonl"
    report = tmp_path / "flight.json"
    assert main([
        "run", "--protocol", "aodv",
        "--flight-trace", str(trace), "--flight-report", str(report),
        *FAST,
    ]) == 0
    capsys.readouterr()
    # The report is the small conservation dict, events stripped.
    rep = json.loads(report.read_text())
    assert rep["conserved"] is True
    assert "events" not in rep

    chrome = tmp_path / "chrome.json"
    assert main(["obs", "trace", str(trace), "-o", str(chrome)]) == 0
    out = capsys.readouterr().out
    assert "event(s)" in out and "chrome://tracing" in out
    doc = json.loads(chrome.read_text())
    assert doc["traceEvents"]
    assert all(e["cat"] == "flight" for e in doc["traceEvents"])


def test_obs_why_on_flight_jsonl(tmp_path, capsys):
    trace = tmp_path / "flight.jsonl"
    assert main([
        "run", "--protocol", "aodv", "--flight-trace", str(trace), *FAST,
    ]) == 0
    capsys.readouterr()
    assert main(["obs", "why", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "offered" in out and "delivered" in out
    assert "conserved" in out
    # The identity is spelled out for the reader.
    assert "offered ==" in out and "in flight" in out


def test_obs_why_json_mode_on_report(tmp_path, capsys):
    import json

    report = tmp_path / "flight.json"
    assert main([
        "run", "--protocol", "aodv", "--flight-report", str(report), *FAST,
    ]) == 0
    capsys.readouterr()
    assert main(["obs", "why", "--json", str(report)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["conserved"] is True
    assert doc["unaccounted"] == 0


def test_obs_why_reruns_a_scenario_config(tmp_path, capsys):
    # Pointing `why` at a scenario config re-runs it with the recorder
    # on — the one-command answer to "where did my packets go".
    cfg_path = tmp_path / "scn.json"
    assert main([
        "run", "--protocol", "aodv", "--save-config", str(cfg_path), *FAST,
    ]) == 0
    capsys.readouterr()
    assert main(["obs", "why", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "conserved" in out and "| yes" in out


def test_obs_why_rejects_garbage(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"hello": 1}')
    assert main(["obs", "why", str(bogus)]) == 1


def test_sweep_drops_csv_columns(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--param", "pause_time", "--values", "0",
        "--protocols", "aodv", "--processes", "1", "--drops",
        "--csv", str(csv_path), *FAST,
    ]) == 0
    lines = csv_path.read_text().splitlines()
    # drop_<reason> columns come from the always-on counter tier; this
    # contended 10-node scenario always records at least one reason.
    assert "drop_" in lines[0]
