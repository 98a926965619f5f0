"""End-to-end packet conservation and flight-recorder determinism.

Two contracts, pinned across all five paper protocols:

* **Conservation**: with the recorder on, every measured data packet
  ends exactly one of delivered / dropped-for-a-reason / in-flight —
  ``offered == delivered + Σ drops_by_reason + in_flight`` with zero
  unaccounted — on clean runs, faulted runs, random topologies, and
  clustered islands. A violated identity means a drop site is missing
  from the taxonomy.
* **See-but-don't-touch**: a seeded run is bit-identical with the
  recorder on or off (``flight`` is excluded from summary equality;
  everything else must match, per-flow delays included), including the
  traced variant and the faulted golden run, whose recorded digest must
  still be the committed one. The recorder must never change results.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlanConfig
from repro.scenario import ScenarioConfig, run_scenario
from tests.scenario.test_determinism import _GOLDEN, _golden_config, _summary_digest

PROTOCOLS = ["dsdv", "dsr", "aodv", "paodv", "cbrp"]

SMALL = dict(
    n_nodes=20,
    field_size=(900.0, 300.0),
    duration=30.0,
    n_connections=6,
    traffic_start_window=(0.0, 6.0),
)

#: Paper-scale scenario: 50 nodes on the 1500x300 field.
PAPER = dict(
    n_nodes=50,
    field_size=(1500.0, 300.0),
    duration=60.0,
    n_connections=10,
    traffic_start_window=(0.0, 12.0),
)


def _assert_conserved(flight):
    assert flight is not None
    assert flight["unaccounted"] == 0
    assert flight["offered"] == (
        flight["delivered"]
        + sum(flight["drops_by_reason"].values())
        + flight["in_flight"]
    )
    assert flight["conserved"] is True


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_conservation_paper_scale(protocol):
    """The headline gate: conservation at paper density, all protocols."""
    cfg = ScenarioConfig(protocol=protocol, flight=True, seed=5, **PAPER)
    summary = run_scenario(cfg)
    _assert_conserved(summary.flight)
    assert summary.flight["offered"] == summary.data_sent
    assert summary.flight["delivered"] == summary.data_received


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_counter_tier_bounds_flight_ledger(protocol):
    """Two-tier consistency: the drop ledger counts drop *events*, the
    recorder counts packet *fates*. Delivery-wins and first-terminal-wins
    can absorb later drop events (a lost copy of a delivered packet, a
    second discard of an already-dead packet), so the recorder is
    bounded by the ledger per reason — never the other way around,
    which would mean a fate with no counted event behind it."""
    cfg = ScenarioConfig(protocol=protocol, flight=True, seed=5, **PAPER)
    summary = run_scenario(cfg)
    ledger = summary.flight["drops_by_reason"]
    counters = summary.drops_by_reason
    assert set(ledger) <= set(counters)
    for reason, n in ledger.items():
        assert n <= counters[reason], reason


def _assert_observed_run_identical(protocol, **observe):
    """*observe* on ≡ off, on this file's clean run and on the faulted
    golden run, whose observed digest must be the committed one."""
    for cfg in (
        ScenarioConfig(protocol=protocol, seed=7, **SMALL),
        _golden_config(protocol, "small_faulted"),
    ):
        plain = run_scenario(cfg)
        observed = run_scenario(cfg.with_(**observe))
        assert plain.flight is None and observed.flight is not None
        if observe.get("flight_trace"):
            assert observed.flight["events"]
        assert plain == observed
        assert set(plain.flows) == set(observed.flows)
        for fid, flow in plain.flows.items():
            assert flow.delays == observed.flows[fid].delays
        if cfg.faults is not None:
            assert plain.fault_crashes > 0
            assert _summary_digest(observed) == _GOLDEN[protocol]["small_faulted"]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_recorder_is_bit_identical(protocol):
    """Recorder on ≡ off: full metric surface and per-flow delays."""
    _assert_observed_run_identical(protocol, flight=True)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_tracing_is_bit_identical(protocol):
    """Causal tracing on ≡ off (the trace rides the same run that the
    plain config produces — events recorded, results untouched)."""
    _assert_observed_run_identical(protocol, flight=True, flight_trace=True)


def test_trace_events_tell_a_causal_story():
    cfg = ScenarioConfig(
        protocol="aodv", flight=True, flight_trace=True, seed=7, **SMALL
    )
    summary = run_scenario(cfg)
    events = summary.flight["events"]
    kinds = {e["ev"] for e in events}
    assert "inject" in kinds and "deliver" in kinds
    assert "mac_attempt" in kinds
    # Per-packet streams are time-ordered and start at injection.
    by_origin = {}
    for e in events:
        by_origin.setdefault(e["origin"], []).append(e)
    for evs in by_origin.values():
        ts = [e["t"] for e in evs]
        assert ts == sorted(ts)
    delivered = [
        evs for evs in by_origin.values()
        if any(e["ev"] == "deliver" for e in evs)
    ]
    assert delivered
    for evs in delivered:
        # Injection happens at origination time (the synchronous
        # originate path can log routing events first, at the same t).
        inject_ts = [e["t"] for e in evs if e["ev"] == "inject"]
        assert inject_ts and inject_ts[0] == evs[0]["t"]


def test_conservation_under_faults():
    """Crashes, downtime, and link loss must not leak packets: every
    casualty lands in a named bucket (node_down, crash_queue, ...)."""
    cfg = ScenarioConfig(
        protocol="aodv",
        flight=True,
        seed=11,
        faults=FaultPlanConfig(
            churn_rate=0.04, mean_downtime=3.0, link_loss=0.08
        ),
        **SMALL,
    )
    summary = run_scenario(cfg)
    assert summary.fault_crashes > 0
    _assert_conserved(summary.flight)


def test_faulted_recorder_is_bit_identical():
    cfg = ScenarioConfig(
        protocol="aodv",
        seed=11,
        faults=FaultPlanConfig(churn_rate=0.04, mean_downtime=3.0),
        **SMALL,
    )
    plain = run_scenario(cfg)
    recorded = run_scenario(cfg.with_(flight=True))
    assert plain == recorded


@given(
    n_nodes=st.integers(min_value=5, max_value=14),
    seed=st.integers(min_value=0, max_value=2**20),
    protocol=st.sampled_from(PROTOCOLS),
)
@settings(max_examples=12, deadline=None)
def test_conservation_property_random_topologies(n_nodes, seed, protocol):
    """Property: conservation on arbitrary small topologies.

    Hypothesis drives node count, seed, and protocol; every example
    must close its ledger with zero unaccounted packets."""
    cfg = ScenarioConfig(
        protocol=protocol,
        flight=True,
        n_nodes=n_nodes,
        field_size=(500.0, 300.0),
        duration=8.0,
        n_connections=min(3, n_nodes - 1),
        traffic_start_window=(0.0, 2.0),
        seed=seed,
    )
    _assert_conserved(run_scenario(cfg).flight)


@given(
    seed=st.integers(min_value=0, max_value=2**20),
    churn=st.floats(min_value=0.0, max_value=0.08),
    link_loss=st.floats(min_value=0.0, max_value=0.15),
)
@settings(max_examples=8, deadline=None)
def test_conservation_property_faulted(seed, churn, link_loss):
    """Property: conservation under arbitrary fault pressure."""
    cfg = ScenarioConfig(
        protocol="aodv",
        flight=True,
        n_nodes=12,
        field_size=(500.0, 300.0),
        duration=10.0,
        n_connections=3,
        traffic_start_window=(0.0, 2.0),
        seed=seed,
        faults=FaultPlanConfig(
            churn_rate=churn, mean_downtime=2.0, link_loss=link_loss
        ),
    )
    _assert_conserved(run_scenario(cfg).flight)


# --------------------------------------------------------------- islands

#: Paper-density clustered field (same recipe as the island goldens).
_ISLAND_DENSITY = 50 / (1500.0 * 300.0)


def _island_cfg(protocol, n_nodes, seed, n_clusters=4, **over):
    strip = n_nodes / n_clusters / _ISLAND_DENSITY / 300.0
    width = n_clusters * strip + (n_clusters - 1) * 700.0
    merged = dict(
        n_nodes=n_nodes,
        field_size=(width, 300.0),
        mobility="static",
        placement="clusters",
        n_clusters=n_clusters,
        cluster_gap=700.0,
        duration=15.0,
        n_connections=max(4, n_nodes // 10),
        traffic_start_window=(0.0, 4.0),
        seed=seed,
    )
    merged.update(over)
    return ScenarioConfig(protocol=protocol, flight=True, **merged)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_island_conservation(protocol):
    """120 static nodes in four radio-disjoint clusters: the ledger
    closes and agrees with the summary's sent/received counters."""
    summary = run_scenario(_island_cfg(protocol, n_nodes=120, seed=13))
    _assert_conserved(summary.flight)
    assert summary.flight["offered"] == summary.data_sent
    assert summary.flight["delivered"] == summary.data_received


def test_island_conservation_10k():
    """The scale pin: 10 000 static clustered nodes, ledger closed.
    MANETSIM_FULL=1 extends it to all five protocols (minutes-long;
    one protocol otherwise)."""
    import os

    protocols = PROTOCOLS if os.environ.get("MANETSIM_FULL") == "1" else ["aodv"]
    for protocol in protocols:
        cfg = _island_cfg(
            protocol, n_nodes=10_000, seed=11,
            duration=2.0, n_connections=40,
            traffic_start_window=(0.0, 1.0),
        )
        summary = run_scenario(cfg)
        _assert_conserved(summary.flight)
        assert summary.flight["offered"] == summary.data_sent, protocol


def test_flight_enters_the_cache_key():
    # Recorder settings are part of the config's canonical form, so a
    # flight-on sweep never collides with a plain one in the cache.
    from repro.scenario import config_cache_key

    base = ScenarioConfig(seed=7, **SMALL)
    assert config_cache_key(base) != config_cache_key(
        base.with_(flight=True)
    )
    assert config_cache_key(base.with_(flight=True)) != config_cache_key(
        base.with_(flight=True, flight_trace=True)
    )


def test_disabled_flight_installs_no_hooks():
    from repro.scenario.build import build_scenario

    scenario = build_scenario(ScenarioConfig(seed=7, **SMALL))
    assert scenario.sim.flight is None
    assert scenario.sim.drops.flight is None
    for node in scenario.network.nodes:
        assert node.routing._flight is None
        assert node.mac._flight is None
        assert node.mac.ifq.drops is scenario.sim.drops


def test_summary_flight_field_excluded_from_equality():
    s = run_scenario(ScenarioConfig(seed=7, flight=True, **SMALL))
    stripped = dataclasses.replace(s, flight=None)
    assert stripped == s
