"""Span profiler: outside-in wrappers, layer attribution, clean removal."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.simulator import Simulator
from repro.mac.arena import ContentionArena
from repro.obs.profiler import Profiler, entry_points, profile_layer_seconds
from repro.scenario import ScenarioConfig, run_scenario
from repro.scenario.build import build_scenario

SMALL = dict(
    n_nodes=10,
    field_size=(600.0, 300.0),
    duration=5.0,
    n_connections=3,
    traffic_start_window=(0.0, 1.0),
)


def _patched_attributes():
    """``{(class, name): attribute}`` for every name the profiler wraps."""
    table, schedulers = entry_points()
    out = {}

    def walk(cls, names):
        for name in names:
            if name in cls.__dict__:
                out[cls, name] = cls.__dict__[name]
        for sub in cls.__subclasses__():
            walk(sub, names)

    for cls, names in table:
        walk(cls, names)
    for cls, name in schedulers:
        out[cls, name] = cls.__dict__[name]
    return out


def _shares(summary):
    layers = profile_layer_seconds(summary.profile)
    total = sum(layers.values())
    return {layer: s / total for layer, s in layers.items()}


def test_span_nesting_builds_paths():
    profile = run_scenario(ScenarioConfig(seed=7, profile=True, **SMALL)).profile
    # The event loop is the one root that runs the simulation; every
    # other path nests under it, one layer per component.
    assert profile["core"]["calls"] == 1
    assert "core/phy/mac" in profile and "core/mac" in profile
    for path in profile:
        parts = path.split("/")
        # Re-entering the layer on top opens no span.
        assert all(a != b for a, b in zip(parts, parts[1:])), path


def test_self_time_excludes_children():
    profile = run_scenario(ScenarioConfig(seed=7, profile=True, **SMALL)).profile
    for path, stat in profile.items():
        children = sum(
            s["wall_s"] for p, s in profile.items()
            if p.rpartition("/")[0] == path
        )
        assert stat["self_s"] == pytest.approx(stat["wall_s"] - children, abs=1e-9)
        assert stat["self_s"] >= -1e-9


def test_simulator_profiled_loop_records_spans():
    def routing_timer(out):
        out.append("timer")

    routing_timer.__module__ = "repro.routing.aodv"
    prof = Profiler()
    prof.install()
    try:
        sim = Simulator(seed=1)
        fired = []
        sim.schedule(1.0, routing_timer, fired)
        sim.schedule(2.0, fired.append, "b")
        sim.run(until=5.0)
    finally:
        prof.remove()
    assert fired == ["timer", "b"]
    stats = prof.as_dict()
    assert stats["core"]["calls"] == 1
    # A callback is charged to the package that defines it; one from
    # outside repro (list.append) stays in the event loop's core span.
    assert stats["core/routing"]["calls"] == 1
    assert set(stats) == {"core", "core/routing"}


def test_simulator_without_profiler_installs_nothing():
    before = _patched_attributes()
    sim = Simulator(seed=1)
    sim.schedule(1.0, lambda: None)
    sim.run(until=2.0)
    assert _patched_attributes() == before


def test_profile_layer_seconds_folds_into_innermost_layer():
    profile = {
        "core": {"calls": 1, "wall_s": 5.0, "self_s": 1.0},
        "core/mac": {"calls": 10, "wall_s": 3.0, "self_s": 2.0},
        "core/phy/mac": {"calls": 4, "wall_s": 1.0, "self_s": 1.0},
        "core/phy": {"calls": 4, "wall_s": 1.5, "self_s": 0.5},
        "routing": {"calls": 2, "wall_s": 1.0, "self_s": 1.0},
    }
    assert profile_layer_seconds(profile) == pytest.approx(
        {"core": 1.0, "mac": 3.0, "phy": 0.5, "routing": 1.0}
    )


def test_saturated_cell_books_its_contention_to_mac():
    # The dense_cell shape, shortened: 20 static nodes in one collision
    # domain, every one a saturated source. DCF is most of the work.
    summary = run_scenario(ScenarioConfig(
        protocol="aodv", seed=1, n_nodes=20, field_size=(200.0, 200.0),
        mobility="static", n_connections=20, rate=80.0, packet_size=256,
        duration=1.0, traffic_start_window=(0.0, 0.1), profile=True,
    ))
    assert _shares(summary)["mac"] >= 0.2


def test_saturated_cell_books_its_frame_ends_to_mac_under_phy(monkeypatch):
    # The channel's end-of-frame event hands its verdicts to the arena:
    # that walk is DCF work, so it runs in a mac span under the
    # channel's phy span, not in phy's self time.
    paths = []
    end_edges = ContentionArena.end_edges

    def probe(self, *args, **kwargs):
        stack = Profiler._installed._stack
        paths.append("/".join(span.layer for span in stack[1:]))
        return end_edges(self, *args, **kwargs)

    probe.__module__ = end_edges.__module__
    monkeypatch.setattr(ContentionArena, "end_edges", probe)
    run_scenario(ScenarioConfig(
        protocol="aodv", seed=1, n_nodes=20, field_size=(200.0, 200.0),
        mobility="static", n_connections=20, rate=80.0, packet_size=256,
        duration=1.0, traffic_start_window=(0.0, 0.1), profile=True,
    ))
    assert paths and set(paths) == {"core/phy/mac"}


def test_dsdv_field_books_its_table_dumps_to_routing():
    summary = run_scenario(ScenarioConfig(
        protocol="dsdv", seed=1, n_nodes=200, field_size=(1200.0, 400.0),
        duration=1.0, traffic_start_window=(0.0, 0.5), profile=True,
    ))
    assert _shares(summary)["routing"] >= 0.2


def test_unprofiled_build_and_run_wrap_nothing():
    scenario = build_scenario(ScenarioConfig(seed=7, **SMALL))
    for (cls, name), attr in _patched_attributes().items():
        assert not hasattr(attr, "__wrapped__"), (cls, name)
    scenario.run()
    for (cls, name), attr in _patched_attributes().items():
        assert not hasattr(attr, "__wrapped__"), (cls, name)


def test_profiled_run_restores_every_attribute():
    before = _patched_attributes()
    scenario = build_scenario(ScenarioConfig(seed=7, profile=True, **SMALL))
    assert all(
        hasattr(attr, "__wrapped__") for attr in _patched_attributes().values()
    )
    assert scenario.run().profile
    assert _patched_attributes() == before


def test_profiled_run_that_raises_restores_every_attribute():
    before = _patched_attributes()
    scenario = build_scenario(ScenarioConfig(seed=7, profile=True, **SMALL))

    def boom():
        raise RuntimeError("boom")

    scenario.sim.schedule(1.0, boom)
    with pytest.raises(RuntimeError, match="boom"):
        scenario.run()
    assert _patched_attributes() == before


def test_profiled_build_that_raises_restores_every_attribute():
    before = _patched_attributes()
    # Five 700 m gaps leave no room for the strips: the build fails
    # after the wrappers went on.
    with pytest.raises(ConfigurationError, match="do not fit"):
        build_scenario(ScenarioConfig(
            seed=7, mobility="static", placement="clusters", n_clusters=6,
            cluster_gap=700.0, profile=True, **SMALL,
        ))
    assert _patched_attributes() == before


def test_second_profiled_build_waits_for_the_first_run():
    cfg = ScenarioConfig(seed=7, profile=True, **SMALL)
    first = build_scenario(cfg)
    with pytest.raises(ConfigurationError, match="already built"):
        build_scenario(cfg)
    first.run()
    assert build_scenario(cfg).run().profile
