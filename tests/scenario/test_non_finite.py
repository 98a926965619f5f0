"""NaN and ±inf are refused wherever a number enters a run.

Range checks cannot catch NaN (every comparison with it is false), so a
config whose ``duration`` is ``Infinity`` or whose ``rate`` is ``NaN``
used to build and run. JSON configs spell these values ``NaN``,
``Infinity`` and ``-Infinity``, which ``json.loads`` accepts.
"""

import json

import pytest

from repro.core.errors import ConfigurationError
from repro.faults.plan import FaultPlanConfig
from repro.scenario import ScenarioConfig, SweepExecutor
from repro.scenario.io import config_from_dict, config_to_dict
from repro.scenario.options import env_number

#: Every float field set (optional ones and fault windows included).
BASE = config_to_dict(ScenarioConfig(
    hello_interval=1.0,
    traffic_start_window=(0.0, 10.0),
    faults=FaultPlanConfig(
        churn_rate=0.01, churn_stop=50.0, energy_budget_j=5.0,
        link_loss=0.1, blackouts=((1.0, 2.0),),
        partitions=((3.0, 4.0, 750.0),), overload_windows=((5.0, 6.0),),
    ),
))


def _float_slots(value, path=()):
    """Paths to every float in decoded JSON *value*."""
    if isinstance(value, float):
        yield path
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _float_slots(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _float_slots(item, path + (i,))


SLOTS = list(_float_slots(BASE))


def _with_token(path, token: str) -> str:
    """BASE as JSON text with the float at *path* spelled *token*."""
    data = json.loads(json.dumps(BASE))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "@SLOT@"
    return json.dumps(data).replace('"@SLOT@"', token)


def test_every_float_field_is_covered():
    fields = {p[1] if p[0] == "faults" else p[0] for p in SLOTS}
    assert {"duration", "rate", "max_speed", "position_quantum",
            "field_size", "traffic_start_window", "hello_interval",
            "churn_stop", "blackouts", "partitions",
            "overload_windows"} <= fields


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "path", SLOTS, ids=["/".join(map(str, p)) for p in SLOTS]
)
def test_non_finite_config_value_is_refused(path, token):
    field = path[1] if path[0] == "faults" else path[0]
    with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
        config_from_dict(json.loads(_with_token(path, token)))


def test_base_config_itself_is_accepted():
    assert config_from_dict(json.loads(json.dumps(BASE))).faults.blackouts


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "Infinity"])
def test_non_finite_environment_number_is_refused(raw, monkeypatch):
    with pytest.raises(ConfigurationError, match="MANETSIM_JOB_TIMEOUT"):
        env_number({"MANETSIM_JOB_TIMEOUT": raw}, "MANETSIM_JOB_TIMEOUT",
                   None, float)
    monkeypatch.setenv("MANETSIM_JOB_TIMEOUT", raw)
    with pytest.raises(ConfigurationError, match="MANETSIM_JOB_TIMEOUT"):
        SweepExecutor(processes=1, use_cache=False)


@pytest.mark.parametrize("timeout", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_job_timeout_is_refused(timeout):
    with pytest.raises(ValueError, match="job_timeout"):
        SweepExecutor(processes=1, use_cache=False, job_timeout=timeout)
