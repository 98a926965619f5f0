"""EngineOptions: the one place run switches are read from the environment."""

import pathlib
import re

import pytest

import repro
from repro.core import ConfigurationError
from repro.scenario.options import EngineOptions


def test_defaults_when_nothing_is_set():
    assert EngineOptions.from_env({}) == EngineOptions()
    assert EngineOptions() == EngineOptions(flight=False, trace_sample=1)


def test_reads_the_two_switches():
    options = EngineOptions.from_env({
        "MANETSIM_FLIGHT": "1",
        "MANETSIM_TRACE_SAMPLE": "8",
        "MANETSIM_PROCESSES": "3",  # not an engine option: ignored here
    })
    assert options == EngineOptions(flight=True, trace_sample=8)


def test_empty_string_means_unset():
    # The CI matrix sets unused switches to "".
    assert EngineOptions.from_env(
        {"MANETSIM_TRACE_SAMPLE": "", "MANETSIM_FLIGHT": ""}
    ) == EngineOptions()


def test_default_source_is_the_process_environment(monkeypatch):
    monkeypatch.setenv("MANETSIM_TRACE_SAMPLE", "3")
    assert EngineOptions.from_env().trace_sample == 3


@pytest.mark.parametrize("name, value", [
    ("MANETSIM_TRACE_SAMPLE", "x"),
    ("MANETSIM_TRACE_SAMPLE", "2.5"),
    ("MANETSIM_TRACE_SAMPLE", "0"),
    ("MANETSIM_TRACE_SAMPLE", "-5"),
])
def test_malformed_integer_is_a_typed_error(monkeypatch, name, value):
    with pytest.raises(ConfigurationError) as err:
        EngineOptions.from_env({name: value})
    assert name in str(err.value) and repr(value) in str(err.value)
    # ... and that is what every entry point sees, not a bare ValueError.
    from repro.scenario import ScenarioConfig, run_scenario

    monkeypatch.setenv(name, value)
    with pytest.raises(ConfigurationError, match=name):
        run_scenario(ScenarioConfig(duration=1.0, traffic_start_window=(0.0, 0.5)))


@pytest.mark.parametrize("name, value", [
    ("MANETSIM_PROCESSES", "abc"),
    ("MANETSIM_PROCESSES", "0"),
    ("MANETSIM_JOB_TIMEOUT", "soon"),
    ("MANETSIM_JOB_RETRIES", "x"),
    ("MANETSIM_JOB_RETRIES", "-1"),
])
def test_malformed_pool_setting_is_a_typed_error(monkeypatch, name, value):
    from repro.scenario import SweepExecutor

    monkeypatch.setenv(name, value)
    with pytest.raises(ConfigurationError) as err:
        SweepExecutor(use_cache=False)
    assert name in str(err.value) and repr(value) in str(err.value)


#: Modules allowed to read the process environment, and why.
_ENV_READERS = {
    "scenario/options.py",      # the two run switches, resolved once
    "scenario/executor.py",     # pool/deployment settings
    "analysis/experiments.py",  # bench scale selectors + results dir
}


def _offenders(pattern, exempt):
    """``file:line`` of every match of *pattern* under ``src/repro``."""
    root = pathlib.Path(repro.__file__).parent
    regex = re.compile(pattern)
    return sorted(
        f"{path.relative_to(root).as_posix()}:{n}"
        for path in root.rglob("*.py")
        if path.relative_to(root).as_posix() not in exempt
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if regex.search(line)
    )


def test_environment_is_read_in_three_modules_only():
    """Nothing below ``scenario/`` may take configuration from the
    environment: an engine that consults ``os.environ`` has an input
    the config, the cache key and the manifest do not record."""
    assert _offenders(
        r"\bos\.environ\b|\bos\.getenv\b|\bfrom os import\b", _ENV_READERS
    ) == []
    # One trace (the flight recorder), one checkpoint (the result
    # store), one stats collector, one event loop: the retired twins
    # stay retired. The broker keeps its own lifecycle log.
    assert _offenders(
        r"journal|stream_stats|core\.trace|\.trace import", {"fabric/broker.py"}
    ) == []
    assert _offenders(
        r"repro\.shard|\.\.shard\b|run_sharded|configure_shard|MANETSIM_SHARD"
        r"|uid_base|record_times|merge_\w+_partials",
        set(),
    ) == []
    # One result codec (MetricsSummary.to_dict/from_dict): no pickle or
    # base64 on the wire or on disk, no second headline field list.
    assert _offenders(
        r"\bimport (pickle|base64)\b|\bfrom (pickle|base64) import"
        r"|encode_summary|decode_summary|_headline",
        set(),
    ) == []
