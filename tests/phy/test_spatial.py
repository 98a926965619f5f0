"""Spatial index correctness against brute force."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ConfigurationError
from repro.phy import SpatialIndex


def brute(positions, x, y, r):
    d = np.hypot(positions[:, 0] - x, positions[:, 1] - y)
    return set(np.nonzero(d <= r)[0].tolist())


def test_basic_query():
    pos = np.array([[0.0, 0.0], [10.0, 0.0], [100.0, 0.0]])
    idx = SpatialIndex(cell_size=50.0)
    idx.rebuild(pos)
    assert set(idx.query_radius(0.0, 0.0, 15.0)) == {0, 1}


def test_point_on_radius_included():
    pos = np.array([[0.0, 0.0], [10.0, 0.0]])
    idx = SpatialIndex(cell_size=5.0)
    idx.rebuild(pos)
    assert set(idx.query_radius(0.0, 0.0, 10.0)) == {0, 1}


def test_query_before_rebuild_raises():
    idx = SpatialIndex(cell_size=10.0)
    with pytest.raises(ConfigurationError):
        idx.query_radius(0, 0, 5)


def test_negative_radius_raises():
    idx = SpatialIndex(cell_size=10.0)
    idx.rebuild(np.zeros((1, 2)))
    with pytest.raises(ConfigurationError):
        idx.query_radius(0, 0, -1.0)


def test_bad_cell_size():
    with pytest.raises(ConfigurationError):
        SpatialIndex(cell_size=0.0)


def test_rebuild_replaces_contents():
    idx = SpatialIndex(cell_size=10.0)
    idx.rebuild(np.array([[0.0, 0.0]]))
    idx.rebuild(np.array([[100.0, 100.0]]))
    assert idx.query_radius(0.0, 0.0, 5.0) == []
    assert idx.query_radius(100.0, 100.0, 5.0) == [0]


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 120),
    radius=st.floats(min_value=1.0, max_value=600.0),
    cell=st.floats(min_value=10.0, max_value=500.0),
)
def test_property_matches_brute_force(seed, n, radius, cell):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 1500.0, size=(n, 2))
    qx, qy = rng.uniform(0.0, 1500.0, size=2)
    idx = SpatialIndex(cell_size=cell)
    idx.rebuild(pos)
    assert set(idx.query_radius(qx, qy, radius)) == brute(pos, qx, qy, radius)


def cell_walk(idx, x, y, radius):
    """The scalar statement of ``candidates``: the ids of the touched
    cells in ``(kx, ky)`` order and each bucket in its own order."""
    c = idx.cell_size
    out = []
    for kx in range(math.floor((x - radius) / c), math.floor((x + radius) / c) + 1):
        for ky in range(math.floor((y - radius) / c), math.floor((y + radius) / c) + 1):
            out += idx._cells.get((kx, ky), ())
    return out


def per_point_reference(idx, x, y, radius):
    """The scalar statement of ``query_radius``: ``cell_walk`` with one
    point tested at a time. Its result *list* is the contract, not just
    the set: fan-out order feeds the channel's ``(time, seq)``
    tie-breaks."""
    pos = idx._positions
    out = []
    for i in cell_walk(idx, x, y, radius):
        dx = pos[i, 0] - x
        dy = pos[i, 1] - y
        if dx * dx + dy * dy <= radius * radius:
            out.append(i)
    return out


def test_candidates_cached_until_a_point_changes_cell():
    # 3 x 3 cells of 100 m; point 4 sits just left of the x = 200 edge.
    pos = np.array([[50.0, 50.0], [150.0, 150.0], [250.0, 150.0],
                    [150.0, 250.0], [199.0, 150.0], [950.0, 950.0]])
    idx = SpatialIndex(cell_size=100.0)
    idx.rebuild(pos)
    first = idx.candidates(150.0, 150.0, 100.0)
    assert first.dtype == np.intp
    assert first.tolist() == cell_walk(idx, 150.0, 150.0, 100.0) == [0, 1, 4, 3, 2]
    assert idx.candidates(160.0, 140.0, 100.0) is first  # same cell block

    drift = pos.copy()
    drift[4] = [198.0, 151.0]  # moves, stays in its cell
    assert idx.update(drift) == 0
    assert idx.candidates(150.0, 150.0, 100.0) is first

    across = drift.copy()
    across[4] = [201.0, 151.0]  # crosses into the cell of point 2
    assert idx.update(across) == 1
    after = idx.candidates(150.0, 150.0, 100.0)
    assert after is not first
    assert after.tolist() == cell_walk(idx, 150.0, 150.0, 100.0) == [0, 1, 3, 2, 4]
    assert idx.query_radius(150.0, 150.0, 100.0) == per_point_reference(
        idx, 150.0, 150.0, 100.0
    )

    idx.rebuild(across[:3])
    assert idx.candidates(150.0, 150.0, 100.0).tolist() == [0, 1, 2]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 200),
    radius=st.floats(min_value=1.0, max_value=600.0),
    cell=st.floats(min_value=10.0, max_value=500.0),
)
def test_result_order_matches_per_point_reference(seed, n, radius, cell):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 1500.0, size=(n, 2))
    idx = SpatialIndex(cell_size=cell)
    idx.rebuild(pos)
    # Several updates that carry points across cell borders, so buckets
    # are no longer in ascending-id order.
    for _ in range(4):
        x, y = pos[rng.integers(n)]
        # Twice: the second answer comes from the cached cell block.
        for _ in range(2):
            assert idx.candidates(x, y, radius).tolist() == cell_walk(idx, x, y, radius)
            assert idx.query_radius(x, y, radius) == per_point_reference(idx, x, y, radius)
        pos = np.clip(pos + rng.normal(0.0, cell / 2, size=(n, 2)), 0.0, 1500.0)
        idx.update(pos)
    x, y = rng.uniform(0.0, 1500.0, size=2)
    assert idx.query_radius(x, y, radius) == per_point_reference(idx, x, y, radius)
