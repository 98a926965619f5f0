"""Static placements and the manager."""

import numpy as np
import pytest

from repro.core import ConfigurationError, RngStreams
from repro.mobility import (
    Field,
    MobilityManager,
    StaticPosition,
    grid_placement,
    line_placement,
    uniform_placement,
)

FIELD = Field(600.0, 600.0)


class TestPlacements:
    def test_static_position(self):
        p = StaticPosition(10.0, 20.0)
        assert p.position(0.0) == (10.0, 20.0)
        assert p.position(1e6) == (10.0, 20.0)
        assert p.speed(5.0) == 0.0

    def test_uniform_placement(self):
        rng = RngStreams(0).stream("place")
        nodes = uniform_placement(FIELD, 50, rng)
        assert len(nodes) == 50
        for n in nodes:
            assert FIELD.contains(*n.position(0.0))

    def test_uniform_placement_negative_raises(self):
        rng = RngStreams(0).stream("p")
        with pytest.raises(ConfigurationError):
            uniform_placement(FIELD, -1, rng)

    def test_grid_placement(self):
        nodes = grid_placement(FIELD, 9)
        assert len(nodes) == 9
        xs = {n.x for n in nodes}
        ys = {n.y for n in nodes}
        assert len(xs) >= 3 and len(ys) >= 3
        for n in nodes:
            assert FIELD.contains(n.x, n.y)

    def test_line_placement(self):
        nodes = line_placement(200.0, 5)
        assert [n.x for n in nodes] == [0.0, 200.0, 400.0, 600.0, 800.0]
        assert all(n.y == 0.0 for n in nodes)

    def test_line_placement_invalid(self):
        with pytest.raises(ConfigurationError):
            line_placement(0.0, 5)
        with pytest.raises(ConfigurationError):
            line_placement(10.0, 0)


class TestManager:
    def test_positions_shape_and_values(self):
        nodes = line_placement(100.0, 4)
        mgr = MobilityManager(nodes)
        pos = mgr.positions(0.0)
        assert pos.shape == (4, 2)
        assert pos[2, 0] == 200.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            MobilityManager([])

    def test_distance(self):
        mgr = MobilityManager(line_placement(300.0, 3))
        assert mgr.distance(0, 2, 0.0) == pytest.approx(600.0)

    def test_distances_from(self):
        mgr = MobilityManager(line_placement(100.0, 4))
        d = mgr.distances_from(1, 0.0)
        assert d.tolist() == [100.0, 0.0, 100.0, 200.0]

    def test_cache_tracks_time(self):
        rng = RngStreams(1).stream("mg")
        from repro.mobility import RandomWaypoint

        mgr = MobilityManager([RandomWaypoint(FIELD, rng, max_speed=10.0)])
        p0 = mgr.positions(0.0).copy()
        p1 = mgr.positions(50.0).copy()
        assert not np.array_equal(p0, p1)
        # Same time returns identical snapshot.
        assert np.array_equal(mgr.positions(50.0), p1)

    def test_invalidate(self):
        mgr = MobilityManager(line_placement(10.0, 2))
        mgr.positions(0.0)
        mgr.invalidate()
        assert mgr.positions(0.0).shape == (2, 2)
