"""Fan-out memo entries that outlive their epoch while nothing moves.

A memo entry records ``MobilityManager.static_until`` as read right
after its snapshot and stays a hit until then, so a static field
computes each source's geometry once per run instead of once per 5 ms
position epoch. The window must be invisible in the results and must
close the moment anything can move.
"""

import math

import pytest

from repro.core import RngStreams
from repro.mac.frames import Frame, FrameType
from repro.mobility import Field, MobilityManager, RandomWaypoint, line_placement
from repro.net.packet import BROADCAST
from repro.scenario import ScenarioConfig, run_scenario
from repro.scenario.build import build_scenario

from .test_batched_arrivals import BatchFakeMac
from .test_fanout_fused import make_channel


@pytest.fixture(autouse=True)
def fast_single_loop(monkeypatch):
    # The counts below are those of one event loop; the sharded CI
    # leg splits the counters across workers.
    monkeypatch.delenv("MANETSIM_SHARDS", raising=False)


def window_off(monkeypatch):
    """Make every snapshot vouch for its own instant only."""
    refresh = MobilityManager._refresh_segments

    def refresh_without_window(self, stale, t):
        refresh(self, stale, t)
        self.static_until = -math.inf

    monkeypatch.setattr(MobilityManager, "_refresh_segments", refresh_without_window)


STATIC = dict(protocol="aodv", n_nodes=12, field_size=(600.0, 300.0),
              mobility="static", duration=6.0, n_connections=4,
              traffic_start_window=(0.0, 1.0), seed=3)


def test_static_field_computes_each_source_once():
    scenario = build_scenario(ScenarioConfig(**STATIC))
    scenario.run()
    perf = scenario.sim.perf
    channel = scenario.network.channel
    transmitters = sum(
        1 for node in scenario.network.nodes if node.radio.stats.frames_sent
    )
    assert transmitters >= 4
    assert perf.fanout_cache_misses == len(channel._memo) == transmitters
    assert perf.fanout_cache_hits > 50 * transmitters
    # One snapshot for the whole run, spanning hundreds of epochs.
    assert perf.batch_position_evals == STATIC["n_nodes"]
    assert all(until == math.inf for _tq, _targets, until in channel._memo.values())


def build_channel(models, batched):
    chan = make_channel(models)
    for radio in chan.radios:
        radio.mac = BatchFakeMac()
    if batched:
        assert chan.enable_batched()
    return chan.sim, chan, chan.radios


def broadcast_every(sim, radio, period, count):
    for k in range(count):
        frame = Frame(FrameType.RTS, radio.node_id, BROADCAST, 44)
        sim.schedule(0.001 + k * period, radio.transmit, frame)


@pytest.mark.parametrize("batched", [True, False])
def test_one_moving_node_closes_the_window(batched):
    def misses(models):
        sim, chan, radios = build_channel(models, batched)
        broadcast_every(sim, radios[0], 0.02, 10)  # ten distinct epochs
        sim.run()
        return sim.perf.fanout_cache_misses, sim.perf.fanout_cache_hits

    still = line_placement(100.0, 5)
    assert misses(still) == (1, 9)
    walker = RandomWaypoint(Field(500.0, 500.0), RngStreams(2).stream("w"),
                            max_speed=10.0, steady_state=False)
    assert misses(still + [walker]) == (10, 0)


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(**STATIC),
    # Pause >= run length: the few nodes that start mid-leg arrive and
    # rest, and the field is static from then on (this seed moves for
    # about a quarter of the run).
    ScenarioConfig(protocol="dsr", n_nodes=34, field_size=(900.0, 300.0),
                   pause_time=60.0, min_speed=60.0, max_speed=120.0,
                   duration=6.0, n_connections=5,
                   traffic_start_window=(0.0, 1.0), seed=3),
], ids=["static", "pause-ge-duration"])
def test_results_identical_with_the_window_forced_off(cfg, monkeypatch):
    windowed = run_scenario(cfg)
    with monkeypatch.context() as patch:
        window_off(patch)
        plain = run_scenario(cfg)
    assert windowed.perf["fanout_cache_misses"] < plain.perf["fanout_cache_misses"]
    assert windowed.perf["batch_position_evals"] < plain.perf["batch_position_evals"]
    assert windowed == plain
    assert set(windowed.flows) == set(plain.flows)
    for fid, flow in windowed.flows.items():
        assert flow.delays == plain.flows[fid].delays
