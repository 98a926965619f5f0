"""Determinism guarantees of the hot-path engine.

Every run resolves receptions on one PHY engine, and every DCF run
built by ``build_scenario`` contends through the shared contention
arena. Per-node DCF timers (``DcfMac``'s own methods, the engine of
``build_network``) are the arena's twin: both are *evaluation
strategies*, never model changes, and must produce bit-identical
metrics for every protocol, faulted or not, on arbitrary topologies.
The batch ``positions(t)`` evaluation must likewise match every
mobility model's scalar ``position(t)``, and committed golden digests
(bottom of this file) pin what both compute.
"""

import dataclasses
import hashlib
import json
import pathlib

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.rng import RngStreams
from repro.mobility import (
    Field,
    ManhattanGrid,
    MobilityManager,
    RandomWaypoint,
    StaticPosition,
    make_groups,
)
from repro.phy.channel import Channel
from repro.scenario import ScenarioConfig, run_scenario

SMALL = dict(
    n_nodes=10,
    field_size=(600.0, 300.0),
    duration=15.0,
    n_connections=3,
    traffic_start_window=(0.0, 2.0),
)

MODEL_KINDS = [
    "waypoint",
    "manhattan",
    "rpgm",
    "static",
]


def _run_both_engines(cfg):
    """*cfg* with the contention arena and with per-node DCF timers.

    The per-node side declines the arena (``Channel.enable_arena``
    answers ``False``, as it does for a MAC that is not arena-safe).
    Perf counters are excluded from summary equality, so they prove
    which engine each side really ran.
    """
    fast = run_scenario(cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Channel, "enable_arena", lambda self: False)
        per_pair = run_scenario(cfg)
    return fast, per_pair


def _assert_bit_identical(fast, per_pair):
    """Whole summary and every per-flow delay list."""
    assert fast == per_pair
    assert set(fast.flows) == set(per_pair.flows)
    for fid, flow in fast.flows.items():
        assert flow.delays == per_pair.flows[fid].delays


@pytest.mark.parametrize("protocol", ["aodv", "dsr"])
def test_vectorized_matches_legacy_end_to_end(protocol, monkeypatch):
    """Full-scenario A/B: segment-array kinematics vs a per-node loop.

    The reference is the loop the manager used to carry: ask every
    model for ``position(t)`` on each new *t* and never vouch for a
    static window, so the channel's fan-out memo only ever hits inside
    one position epoch.
    """
    cfg = ScenarioConfig(protocol=protocol, seed=7, **SMALL)
    fast = run_scenario(cfg)

    def per_node_loop(self, t):
        for i, model in enumerate(self.models):
            self._cache[i] = model.position(t)
        self.perf.scalar_position_evals += len(self.models)
        self._cache_t = t
        self._cache_valid = True
        return self._cache

    monkeypatch.setattr(MobilityManager, "_positions_compute", per_node_loop)
    reference = run_scenario(cfg)

    assert fast.perf["batch_position_evals"] > 0
    assert reference.perf["batch_position_evals"] == 0
    assert reference.perf["scalar_position_evals"] > 0
    _assert_bit_identical(fast, reference)


#: One collision domain wider than any array/scalar cutoff the engines
#: have had (128 receivers): every frame fans out to all 149 others.
LARGE_CELL = dict(
    n_nodes=150,
    field_size=(300.0, 300.0),
    mobility="static",
    duration=1.0,
    n_connections=10,
    traffic_start_window=(0.0, 0.2),
)


@pytest.mark.parametrize("protocol, scenario", [
    *(pytest.param(p, SMALL, id=p)
      for p in ["aodv", "dsr", "dsdv", "cbrp", "paodv"]),
    pytest.param("aodv", LARGE_CELL, id="aodv-150-static"),
])
def test_dcf_arena_matches_legacy(protocol, scenario):
    """Full-scenario A/B: contention arena vs per-node DCF, same seed.

    The arena moves DCF's contention timers onto a coalescing wheel and
    its carrier-edge reactions into two inlined per-fan-out loops; the
    per-node path keeps heap timers and ``medium_changed`` callbacks.
    Identical protocol, different dispatch machinery — results must be
    bit-identical everywhere, large fan-outs included. A seed of its
    own, so this is not a golden run again.
    """
    fast, per_pair = _run_both_engines(
        ScenarioConfig(protocol=protocol, seed=8, **scenario)
    )
    # Only the arena routes DCF timers through the shared wheel.
    assert fast.perf["mac_timer_events"] > 0
    assert per_pair.perf["mac_timer_events"] == 0
    _assert_bit_identical(fast, per_pair)


class TestFaultDeterminism:
    """Fault injection must not disturb the determinism contract."""

    def test_faulted_dcf_arena_matches_legacy(self):
        # Node crashes tear radios out of the air mid-reservation and
        # the fault hook filters fan-outs — the arena's wheel timers
        # and edge loops must shrug all of it off bit-identically.
        from repro.faults.plan import FaultPlanConfig

        fast, per_pair = _run_both_engines(ScenarioConfig(
            seed=12,
            faults=FaultPlanConfig(churn_rate=0.04, mean_downtime=3.0,
                                   link_loss=0.08),
            **SMALL,
        ))
        assert fast.fault_crashes > 0
        assert fast.perf["mac_timer_events"] > 0
        assert per_pair.perf["mac_timer_events"] == 0
        _assert_bit_identical(fast, per_pair)

    def test_no_fault_config_is_bit_identical_with_zero_fault_fields(self):
        cfg = ScenarioConfig(seed=7, **SMALL)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a == b
        assert (a.fault_crashes, a.fault_packets_lost) == (0, 0)
        assert (a.fault_downtime, a.fault_recovery_latency) == (0.0, 0.0)

    def test_seeded_churn_identical_across_runs(self):
        from repro.faults.plan import FaultPlanConfig

        cfg = ScenarioConfig(
            seed=7,
            faults=FaultPlanConfig(churn_rate=0.03, mean_downtime=4.0,
                                   link_loss=0.05),
            **SMALL,
        )
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a.fault_crashes > 0
        assert a == b
        for fid, flow in a.flows.items():
            assert flow.delays == b.flows[fid].delays

    def test_seeded_churn_identical_across_worker_counts(self, tmp_path):
        # A faulted sweep must not depend on how it is dispatched:
        # inline (1 process) and pooled (2 processes) executions of the
        # same configs produce identical summaries.
        from repro.faults.plan import FaultPlanConfig
        from repro.scenario import SweepExecutor

        plan = FaultPlanConfig(churn_rate=0.03, mean_downtime=4.0)
        configs = [
            ScenarioConfig(seed=s, faults=plan, **SMALL) for s in (3, 4)
        ]
        serial = SweepExecutor(processes=1, use_cache=False)
        pooled = SweepExecutor(processes=2, use_cache=False)
        try:
            inline = serial.run(configs)
            fanned = pooled.run(configs)
        finally:
            serial.close()
            pooled.close()
        assert inline == fanned
        for a, b in zip(inline, fanned):
            for fid, flow in a.flows.items():
                assert flow.delays == b.flows[fid].delays

    def test_fault_fields_survive_the_sweep_cache(self, tmp_path):
        from repro.faults.plan import FaultPlanConfig
        from repro.scenario import run_sweep

        base = ScenarioConfig(
            seed=9,
            faults=FaultPlanConfig(churn_rate=0.05, mean_downtime=3.0),
            **SMALL,
        )
        kwargs = dict(replications=1, processes=1, cache=True,
                      cache_dir=str(tmp_path))
        first = run_sweep(base, "pause_time", [0.0], ["aodv"], **kwargs)
        second = run_sweep(base, "pause_time", [0.0], ["aodv"], **kwargs)
        assert second.cache_hits == 1
        (a,), (b,) = first.raw.values(), second.raw.values()
        assert a == b
        assert a[0].fault_crashes > 0

    def test_plan_changes_the_cache_key(self):
        from repro.faults.plan import FaultPlanConfig
        from repro.scenario import config_cache_key

        base = ScenarioConfig(seed=7, **SMALL)
        faulted = base.with_(faults=FaultPlanConfig(link_loss=0.1))
        assert config_cache_key(base) != config_cache_key(faulted)


class TestObservabilityDeterminism:
    """Profiling and telemetry are read-only: results never change.

    The obs layer's contract is pay-for-what-you-use *and*
    see-but-don't-touch — a seeded run is bit-identical with spans and
    probes on or off, and a disabled config installs no hooks at all.
    """

    def test_disabled_obs_installs_no_hooks(self):
        from repro.scenario.build import build_scenario

        scenario = build_scenario(ScenarioConfig(seed=7, **SMALL))
        assert scenario.profiler is None
        assert scenario.telemetry is None
        assert scenario.sim.flight is None

    def test_profiling_is_bit_identical(self):
        cfg = ScenarioConfig(seed=7, **SMALL)
        plain = run_scenario(cfg)
        profiled = run_scenario(cfg.with_(profile=True))
        # The profiler actually ran (spans recorded) ...
        assert profiled.profile and "core" in profiled.profile
        assert not plain.profile
        # ... and never touched the simulation (profile/perf are
        # excluded from summary equality, so this is the full metric
        # surface plus every per-flow delay).
        assert plain == profiled
        for fid, flow in plain.flows.items():
            assert flow.delays == profiled.flows[fid].delays

    def test_telemetry_is_bit_identical(self):
        cfg = ScenarioConfig(seed=7, **SMALL)
        plain = run_scenario(cfg)
        probed = run_scenario(cfg.with_(telemetry_interval=1.0))
        assert probed.perf["telemetry_samples"] > 0
        assert plain == probed
        for fid, flow in plain.flows.items():
            assert flow.delays == probed.flows[fid].delays

    def test_profile_and_telemetry_together_bit_identical(self):
        cfg = ScenarioConfig(seed=7, **SMALL)
        plain = run_scenario(cfg)
        both = run_scenario(
            cfg.with_(profile=True, telemetry_interval=0.5)
        )
        assert plain == both

    def test_obs_fields_enter_the_cache_key(self):
        # Intentional: obs settings are part of the config's canonical
        # form, so sweeps with different observability never collide in
        # the result cache.
        from repro.scenario import config_cache_key

        base = ScenarioConfig(seed=7, **SMALL)
        assert config_cache_key(base) != config_cache_key(
            base.with_(profile=True)
        )
        assert config_cache_key(base) != config_cache_key(
            base.with_(telemetry_interval=2.0)
        )


#: Node counts for the engine-equivalence property below: small
#: fields (the channel's scalar fan-out loop), plus one count above
#: ``Channel._scalar_threshold`` and one above ``grid_threshold`` so
#: the vector and grid miss paths are compared end to end as well.
_AB_NODE_COUNTS = st.one_of(
    st.integers(min_value=5, max_value=14), st.sampled_from([40, 140])
)


def _ab_cfg(n_nodes, seed, protocol):
    small = n_nodes <= 14
    return ScenarioConfig(
        protocol=protocol,
        n_nodes=n_nodes,
        field_size=(500.0, 300.0) if small else (17.0 * n_nodes, 4.0 * n_nodes),
        duration=8.0 if small else 2.0,
        n_connections=min(3, n_nodes - 1),
        traffic_start_window=(0.0, 2.0 if small else 0.5),
        seed=seed,
    )


def _assume_on_air(summary):
    """Reject draws that never transmit: a DSDV field whose first dumps
    (uniform over the 15 s update interval) all fall after the run has
    no routes, so nothing reaches the channel and there is nothing for
    the engines to agree on (n_nodes=5 seed=5 is one, pinned below)."""
    perf = summary.perf
    assume(perf["fanout_cache_hits"] + perf["fanout_cache_misses"] > 0)


@given(
    n_nodes=_AB_NODE_COUNTS,
    seed=st.integers(min_value=0, max_value=2**20),
    protocol=st.sampled_from(["aodv", "dsdv", "dsr"]),
)
@example(n_nodes=5, seed=5, protocol="dsdv")
@example(n_nodes=40, seed=1, protocol="dsr")
@example(n_nodes=140, seed=1, protocol="aodv")
@settings(max_examples=10, deadline=None)
def test_dcf_arena_property_random_topologies(n_nodes, seed, protocol):
    """Property: arena ≡ per-node DCF on arbitrary topologies.

    Hypothesis drives node count, seed, and protocol; every example
    runs both in this process (the per-node side patches the arena
    away only for its own run), with the contention-engine counters as
    the proof of which side ran.
    """
    fast, per_pair = _run_both_engines(_ab_cfg(n_nodes, seed, protocol))
    _assume_on_air(fast)
    assert fast.perf["mac_timer_events"] > 0
    assert per_pair.perf["mac_timer_events"] == 0
    _assert_bit_identical(fast, per_pair)


def _build_models(kind: str, seed: int):
    """A fresh, deterministic model set of one mobility kind."""
    streams = RngStreams(seed)
    field = Field(500.0, 400.0)
    if kind == "rpgm":
        return make_groups(
            field, streams.stream, 6, n_groups=2,
            max_speed=15.0, pause_time=1.0, radius=50.0,
        )
    models = []
    for i in range(5):
        rng = streams.stream(f"m{i}")
        if kind == "waypoint":
            m = RandomWaypoint(field, rng, max_speed=15.0, pause_time=2.0)
        elif kind == "manhattan":
            m = ManhattanGrid(field, rng, max_speed=15.0)
        else:
            m = StaticPosition(*field.random_point(rng))
        models.append(m)
    return models


@pytest.mark.parametrize("kind", MODEL_KINDS)
@given(ts=st.lists(
    st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
    min_size=1, max_size=20,
))
@settings(max_examples=20, deadline=None)
def test_batch_positions_match_scalar(kind, ts):
    """Batch ``positions(t)`` ≡ per-model ``position(t)`` (≤ 1e-12)."""
    # Two identically-seeded model sets: one driven through the batch
    # manager, one queried directly, so RNG draw order stays aligned.
    mgr = MobilityManager(_build_models(kind, 11))
    ref = _build_models(kind, 11)
    for t in sorted(ts):
        pos = mgr.positions(t)
        for i, model in enumerate(ref):
            x, y = model.position(t)
            assert abs(pos[i, 0] - x) <= 1e-12
            assert abs(pos[i, 1] - y) <= 1e-12


# ------------------------------------------------------------- islands

#: Paper-density clustered field: 4 radio-disjoint islands.
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
    return ScenarioConfig(protocol=protocol, **merged)


# ---------------------------------------------------------------------
# Golden digests
# ---------------------------------------------------------------------
# One implementation per layer means no in-process twin to compare
# against, so behaviour is pinned by committed digests instead:
# golden.json holds, for each of the paper's five protocols, a plain
# run, a faulted run, a 120-node island run and a ``flight_trace`` run,
# plus DSDV's 300-node field.
# DSDV's first four were recorded at 242138d (the last commit with its
# per-entry twin); everything else at d7c9e92, the last commit whose
# four layers still had environment-selected twins, with every
# combination of them agreeing. The island digests were recorded
# through a 2-shard engine since retired; the one event loop
# reproduces them exactly.

_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden.json").read_text()
)


def _summary_digest(summary) -> str:
    """sha256 of the canonical summary: results and per-flow delays,
    engine-side fields (perf counters, profile, flight report) left out."""
    fields = dataclasses.asdict(summary)
    for engine_side in ("perf", "profile", "flight"):
        fields.pop(engine_side, None)
    return hashlib.sha256(
        json.dumps(fields, sort_keys=True).encode()
    ).hexdigest()


def _golden_run(protocol: str, case: str):
    from repro.faults.plan import FaultPlanConfig

    if case == "small_plain":
        return run_scenario(ScenarioConfig(protocol=protocol, seed=7, **SMALL))
    if case == "small_faulted":
        return run_scenario(ScenarioConfig(
            protocol=protocol, seed=11,
            faults=FaultPlanConfig(churn_rate=0.04, mean_downtime=3.0,
                                   link_loss=0.08),
            **SMALL,
        ))
    if case == "islands":
        return run_scenario(_island_cfg(protocol, n_nodes=120, seed=13))
    if case == "flight_trace":
        return run_scenario(ScenarioConfig(
            protocol=protocol, seed=7, flight_trace=True, **SMALL
        ))
    if case == "field_300":
        # 300 mobile nodes: above the channel's grid threshold, and low
        # node ids keep learning higher ones, so the columns regrow.
        return run_scenario(ScenarioConfig(
            protocol=protocol, seed=5, n_nodes=300,
            field_size=(3000.0, 1000.0), duration=2.0, n_connections=10,
            traffic_start_window=(0.0, 1.0),
        ))
    raise KeyError(case)


def _check_golden(protocol: str, case: str) -> None:
    summary = _golden_run(protocol, case)
    assert summary.data_sent > 0
    if case == "flight_trace":
        # A traced run contends through the arena like any other, and
        # observing it changed nothing: same digest as the plain run.
        assert summary.perf["mac_timer_events"] > 0
        assert _GOLDEN[protocol][case] == _GOLDEN[protocol]["small_plain"]
    assert _summary_digest(summary) == _GOLDEN[protocol][case]


@pytest.mark.parametrize("case", sorted(_GOLDEN["dsdv"]))
def test_dsdv_golden_digest(case):
    _check_golden("dsdv", case)


@pytest.mark.parametrize("protocol", ["dsr", "aodv", "paodv", "cbrp"])
@pytest.mark.parametrize("case", sorted(_GOLDEN["dsr"]))
def test_golden_digest(protocol, case):
    _check_golden(protocol, case)
