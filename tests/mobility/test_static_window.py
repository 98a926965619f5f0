"""``MobilityManager.static_until``: the window in which nothing moves.

While every published segment is a pause the fused expression is
``p0 + frac * 0``, so the manager hands back its snapshot instead of
re-evaluating, up to the earliest segment end. Anything it cannot vouch
for (a moving row, a pinned row, an ``invalidate()``) must read -inf.
"""

import math

from repro.core import RngStreams
from repro.mobility import (
    Field,
    Leg,
    LegBasedModel,
    MobilityManager,
    RandomWaypoint,
    StaticPosition,
    line_placement,
)

FIELD = Field(600.0, 600.0)


class PauseThenWalk(LegBasedModel):
    """Rests at ``(x, y)`` until *until*, then walks east at 1 m/s."""

    def __init__(self, x, y, until):
        super().__init__(x, y)
        self.until = until

    def _next_leg(self, prev):
        if prev.t1 < self.until:
            return Leg(prev.t1, self.until, prev.x1, prev.y1, prev.x1, prev.y1)
        return Leg(prev.t1, prev.t1 + 50.0, prev.x1, prev.y1, prev.x1 + 50.0, prev.y1)


def evals(mgr):
    return mgr.perf.batch_position_evals


def test_static_field_is_evaluated_once():
    mgr = MobilityManager(line_placement(100.0, 6))
    first = mgr.positions(0.0)
    assert mgr.static_until == math.inf
    for k in range(1, 200):
        assert mgr.positions(k * 0.005) is first
    assert evals(mgr) == 6
    assert first[:, 0].tolist() == [0.0, 100.0, 200.0, 300.0, 400.0, 500.0]


def test_one_moving_node_forbids_reuse():
    rng = RngStreams(4).stream("m")
    models = line_placement(100.0, 5) + [
        RandomWaypoint(FIELD, rng, max_speed=10.0, steady_state=False)
    ]
    mgr = MobilityManager(models)
    for k in range(1, 11):
        mgr.positions(k * 0.5)
        assert mgr.static_until == -math.inf
    assert evals(mgr) == 6 * 10


def test_all_paused_window_ends_at_earliest_segment_end():
    models = [PauseThenWalk(10.0, 10.0, until=10.0),
              PauseThenWalk(20.0, 20.0, until=7.0),
              StaticPosition(30.0, 30.0)]
    mgr = MobilityManager(models)
    # t = 0 lands on the zero-length placeholder legs: pinned rows.
    mgr.positions(0.0)
    assert mgr.static_until == -math.inf
    snap = mgr.positions(1.0)
    assert mgr.static_until == 7.0
    n = evals(mgr)
    for t in (1.5, 3.0, 6.999, math.nextafter(7.0, 0.0)):
        assert mgr.positions(t) is snap
        assert snap.tolist() == [list(m.position(t)) for m in models]
    assert evals(mgr) == n
    # The window is half-open: at 7.0 the second node is walking.
    assert mgr.positions(7.0).tolist() == [list(m.position(7.0)) for m in models]
    assert evals(mgr) == n + 3
    assert mgr.static_until == -math.inf
    assert mgr.positions(8.0)[1].tolist() == [21.0, 20.0]
    # A time before the snapshot is never answered from the window.
    mgr2 = MobilityManager([PauseThenWalk(10.0, 10.0, until=10.0)])
    mgr2.positions(5.0)
    mgr2.positions(2.0)
    assert evals(mgr2) == 2


def test_invalidate_reads_minus_inf():
    mgr = MobilityManager(line_placement(100.0, 4))
    mgr.positions(1.0)
    assert mgr.static_until == math.inf
    mgr.invalidate()
    assert mgr.static_until == -math.inf
    mgr.positions(2.0)
    assert evals(mgr) == 8
    assert mgr.static_until == math.inf


def test_reuse_is_exact_on_long_pause_waypoints():
    def models():
        streams = RngStreams(9)
        return [RandomWaypoint(FIELD, streams.stream(f"m{i}"), max_speed=20.0,
                               min_speed=5.0, pause_time=60.0)
                for i in range(4)]

    mgr, ref = MobilityManager(models()), models()
    steps = 800
    for k in range(steps):
        t = 0.25 * k
        assert mgr.positions(t).tolist() == [list(m.position(t)) for m in ref]
    # All four rest at once now and then; those steps cost nothing.
    assert 0 < evals(mgr) < 4 * steps
