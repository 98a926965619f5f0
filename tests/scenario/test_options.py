"""Environment settings: read in two modules, typed on the way in.

Nothing that changes a result is taken from the environment; what is
left (pool and deployment settings, figure-bench scale) is parsed by
``executor.env_number``, so a bad value is a typed error naming the
variable.
"""

import pathlib
import re

import pytest

import repro
from repro.core import ConfigurationError
from repro.scenario.executor import env_number


def test_defaults_when_nothing_is_set():
    assert env_number({}, "MANETSIM_PROCESSES", 4, minimum=1) == 4
    assert env_number({}, "MANETSIM_JOB_TIMEOUT", None, float) is None


def test_empty_string_means_unset():
    # A CI matrix may set an unused variable to "".
    assert env_number({"MANETSIM_JOB_RETRIES": ""}, "MANETSIM_JOB_RETRIES", 2) == 2


def test_default_source_is_the_process_environment(monkeypatch):
    from repro.scenario import SweepExecutor

    monkeypatch.setenv("MANETSIM_PROCESSES", "3")
    monkeypatch.setenv("MANETSIM_JOB_RETRIES", "5")
    executor = SweepExecutor(use_cache=False)
    assert (executor.processes, executor.max_retries) == (3, 5)


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


def test_environment_is_read_in_two_modules_only():
    """Nothing below ``scenario/`` may take configuration from the
    environment: an engine that consults ``os.environ`` has an input
    the config, the cache key and the manifest do not record."""
    assert _offenders(
        r"\bos\.environ\b|\bos\.getenv\b|\bfrom os import\b", _ENV_READERS
    ) == []
    # The run switches that used to be read there are gone for good.
    assert _offenders(
        r"MANETSIM_FLIGHT|MANETSIM_TRACE_SAMPLE|EngineOptions", set()
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
