"""Fan-out memo entries that outlive their epoch while nothing moves.

A memo entry records ``MobilityManager.static_until`` as read right
after its snapshot and stays a hit until then, so a static field
computes each source's geometry once per run instead of once per 5 ms
position epoch. The window must be invisible in the results and must
close the moment anything can move. The memo holds only entries that
can still hit: the rest are dropped, also invisibly.
"""

import math

import pytest

from repro.core import RngStreams
from repro.mac.frames import Frame, FrameType
from repro.mobility import Field, MobilityManager, RandomWaypoint, line_placement
from repro.net.packet import BROADCAST
from repro.phy.channel import Channel
from repro.scenario import ScenarioConfig, run_scenario
from repro.scenario.build import build_scenario

from .test_batched_arrivals import BatchFakeMac
from .test_fanout_fused import make_channel


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
#: Pause >= run length: the few nodes that start mid-leg arrive and
#: rest (this seed is at rest from 0.48 s to 4.65 s, then one node
#: moves again).
SETTLING = dict(protocol="dsr", n_nodes=34, field_size=(900.0, 300.0),
                pause_time=60.0, min_speed=60.0, max_speed=120.0,
                duration=6.0, n_connections=5,
                traffic_start_window=(0.0, 1.0), seed=3)
MOVING = dict(protocol="aodv", n_nodes=40, field_size=(800.0, 300.0),
              pause_time=0.0, duration=4.0, n_connections=5,
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
    ScenarioConfig(**STATIC), ScenarioConfig(**SETTLING),
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


# --------------------------------------------------------- memo liveness
#
# The first miss of a new epoch drops every entry that can never hit
# again (from an earlier epoch, bound reached). What is left must be
# exactly what can still hit, and dropping the rest must be invisible.


def record_misses(monkeypatch):
    """Log ``(src, tq, valid until)`` of every memo miss, in order."""
    build = Channel._build_targets_batched
    misses = []

    def logged(self, src_id, tq):
        targets = build(self, src_id, tq)
        misses.append((src_id, tq, self.mobility.static_until))
        return targets

    monkeypatch.setattr(Channel, "_build_targets_batched", logged)
    return misses


def test_moving_field_keeps_only_the_last_miss_epoch(monkeypatch):
    misses = record_misses(monkeypatch)
    scenario = build_scenario(ScenarioConfig(**MOVING))
    scenario.run()
    memo = scenario.network.channel._memo
    last_tq = misses[-1][1]
    assert len({tq for _src, tq, _until in misses}) > 100
    assert all(until == -math.inf for _src, _tq, until in misses)
    assert memo
    assert {tq for tq, _targets, _until in memo.values()} == {last_tq}
    assert sorted(memo) == sorted(src for src, tq, _until in misses if tq == last_tq)


def test_settled_field_keeps_its_static_entries(monkeypatch):
    misses = record_misses(monkeypatch)
    evict = Channel._evict
    sweeps = []

    def logged(self, tq):
        before = {src: entry[0] for src, entry in self._memo.items()}
        evict(self, tq)
        sweeps.append((tq, before, dict(self._memo)))

    monkeypatch.setattr(Channel, "_evict", logged)
    build_scenario(ScenarioConfig(**SETTLING)).run()
    resting = [(src, tq, until) for src, tq, until in misses if until > tq]
    assert resting
    (until,) = {until for _src, _tq, until in resting}
    start = resting[0][1]
    # At rest each source misses once: its entry answers every later
    # frame of the window, and no epoch scans the memo meanwhile.
    assert len(resting) == len({src for src, _tq, _until in resting})
    assert not [tq for tq, _before, _after in sweeps if start < tq < until]
    # The first sweep past the window finds exactly the rest-era
    # entries, and drops them all.
    _tq, before, after = next(s for s in sweeps if s[0] >= until)
    assert before == {src: tq for src, tq, _until in resting}
    assert after == {}


def test_sweep_drops_exactly_the_dead_entries():
    _sim, chan, _radios = build_channel(line_placement(100.0, 2), batched=True)
    chan._memo = {
        0: (0.0, "moved", -math.inf),        # earlier epoch, window shut
        1: (0.0, "resting", 0.02),           # earlier epoch, window open
        2: (0.005, "this epoch", -math.inf),
        3: (0.0, "bound reached", 0.005),
    }
    chan._evict(0.005)
    assert sorted(chan._memo) == [1, 2]
    assert chan._memo_floor == -math.inf
    chan._memo.pop(2)
    chan._evict(0.01)
    assert sorted(chan._memo) == [1]
    assert chan._memo_floor == 0.02
    chan._evict(0.02)
    assert chan._memo == {}
    assert chan._memo_floor == math.inf


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(**STATIC), ScenarioConfig(**SETTLING), ScenarioConfig(**MOVING),
], ids=["static", "pause-ge-duration", "moving"])
def test_results_identical_with_the_sweep_off(cfg, monkeypatch):
    swept = run_scenario(cfg)
    with monkeypatch.context() as patch:
        patch.setattr(Channel, "_evict", lambda self, tq: None)
        kept = run_scenario(cfg)
    for counter in ("fanout_cache_hits", "fanout_cache_misses"):
        assert swept.perf[counter] == kept.perf[counter]
    assert swept == kept
    assert set(swept.flows) == set(kept.flows)
    for fid, flow in swept.flows.items():
        assert flow.delays == kept.flows[fid].delays
