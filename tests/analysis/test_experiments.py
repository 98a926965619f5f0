"""Experiment presets and scale selection."""

import pytest

from repro.analysis import base_config, current_scale
from repro.analysis.experiments import DEFAULT, FULL, QUICK, save_result


#: Values that leave a scale switch off: unset, "0" and empty.
OFF = (None, "0", "")


def _set(monkeypatch, name, value):
    if value is None:
        monkeypatch.delenv(name, raising=False)
    else:
        monkeypatch.setenv(name, value)


class TestScaleSelection:
    def test_default_without_env(self, monkeypatch):
        for full in OFF:
            for quick in OFF:
                _set(monkeypatch, "MANETSIM_FULL", full)
                _set(monkeypatch, "MANETSIM_QUICK", quick)
                assert current_scale() is DEFAULT, (full, quick)

    def test_full_env(self, monkeypatch):
        monkeypatch.setenv("MANETSIM_FULL", "1")
        for quick in OFF:
            _set(monkeypatch, "MANETSIM_QUICK", quick)
            assert current_scale() is FULL, quick

    def test_quick_env(self, monkeypatch):
        monkeypatch.setenv("MANETSIM_QUICK", "1")
        for full in OFF:
            _set(monkeypatch, "MANETSIM_FULL", full)
            assert current_scale() is QUICK, full

    def test_full_beats_quick(self, monkeypatch):
        monkeypatch.setenv("MANETSIM_FULL", "1")
        monkeypatch.setenv("MANETSIM_QUICK", "1")
        assert current_scale() is FULL


class TestScaleContents:
    def test_full_is_paper_configuration(self):
        assert FULL.n_nodes == 50
        assert FULL.field == (1500.0, 300.0)
        assert FULL.duration == 900.0
        assert FULL.replications == 5
        assert FULL.pause_values == (0.0, 30.0, 60.0, 120.0, 300.0, 600.0, 900.0)
        assert FULL.source_counts[:3] == (10, 20, 30)

    def test_scales_ordered_by_cost(self):
        assert QUICK.n_nodes < DEFAULT.n_nodes < FULL.n_nodes + 1
        assert QUICK.duration < DEFAULT.duration < FULL.duration


class TestBaseConfig:
    def test_base_config_uses_scale(self):
        cfg = base_config(QUICK)
        assert cfg.n_nodes == QUICK.n_nodes
        assert cfg.duration == QUICK.duration
        assert cfg.n_connections == QUICK.source_counts[0]

    def test_overrides_win(self):
        cfg = base_config(QUICK, protocol="dsr", pause_time=42.0)
        assert cfg.protocol == "dsr"
        assert cfg.pause_time == 42.0

    def test_traffic_window_bounded_by_duration(self):
        cfg = base_config(QUICK)
        assert cfg.traffic_start_window[1] <= QUICK.duration / 5.0 + 1e-9


class TestSaveResult:
    def test_writes_file_and_echoes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MANETSIM_RESULTS", str(tmp_path / "out"))
        path = save_result("TEST_exp", "hello figure")
        assert path.read_text() == "hello figure\n"
        assert "hello figure" in capsys.readouterr().out
