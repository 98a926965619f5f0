"""The fan-out miss path against its list-form reference.

``Channel._build_targets_batched`` goes from the position snapshot to a
``_BatchTargets`` in one array pass (grid candidates from the cached
cell block, one squared-distance vector, source struck out before the
path-loss model runs); both arrival engines walk that entry.
``reference_fanout`` below is the geometry the per-pair engine used to
carry (list in, list out, ``SpatialIndex.query_radius`` walking the
buckets afresh) and serves as the oracle: ids must agree in order and
powers bit for bit. Each side gets its own channel, mobility manager
and grid, so a stale cache on one side cannot hide behind the other.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RngStreams, Simulator
from repro.core.errors import SimulationError
from repro.mobility import Field, MobilityManager, RandomWaypoint
from repro.mobility.static import StaticPosition
from repro.phy import WAVELAN_914MHZ, Channel, Radio, TwoRayGround

#: Node count -> field: the scalar loop (<= 32), the all-nodes vector
#: path, and the grid path (> 128) on one and on 44 cells.
FIELDS = {
    20: (300.0, 300.0),
    50: (1500.0, 300.0),
    200: (1200.0, 800.0),
    1000: (6000.0, 2000.0),
}


def make_channel(models, quantum=0.005):
    sim = Simulator(seed=1)
    chan = Channel(sim, MobilityManager(models), TwoRayGround(),
                   WAVELAN_914MHZ, position_quantum=quantum)
    for nid in range(len(models)):
        chan.attach(Radio(sim, nid, WAVELAN_914MHZ))
    return chan


def reference_fanout(channel: Channel, src: int, tq: float):
    """``[(radio, rx_power)]`` for every detectable receiver of *src*
    at sample time *tq*, the source itself excluded."""
    positions = channel.mobility.positions(tq)
    n = len(positions)
    params = channel.params
    if n <= channel._scalar_threshold:
        eligible, powers = channel._scalar_fanout(positions, src, tq)
    else:
        sx = positions[src, 0]
        sy = positions[src, 1]
        if n > channel._grid_threshold:
            channel._sync_grid(positions, tq)
            idx = np.asarray(
                channel._grid.query_radius(sx, sy, channel.max_range),
                dtype=np.intp,
            )
            dx = positions[idx, 0] - sx
            dy = positions[idx, 1] - sy
        else:
            idx = np.arange(n)
            dx = positions[:, 0] - sx
            dy = positions[:, 1] - sy
        d2 = dx * dx + dy * dy
        near = d2 <= channel._prefilter_d2
        idx = idx[near]
        pw = channel.propagation.rx_power_d2_vec(params.tx_power, d2[near])
        keep = pw >= params.cs_threshold
        eligible, powers = idx[keep].tolist(), pw[keep].tolist()
    targets = []
    for i, p in zip(eligible, powers):
        if i == src:
            continue
        radio = channel.radios[i]
        if radio is None:
            raise SimulationError(f"node {i} is in range but has no radio")
        targets.append((radio, p))
    return targets


def assert_same_fanout(fused: Channel, oracle: Channel, src: int, tq: float):
    bt = fused._build_targets_batched(src, tq)
    pairs = reference_fanout(oracle, src, tq)
    assert bt.ids.dtype == np.intp
    assert bt.ids.tolist() == [radio.node_id for radio, _ in pairs]
    assert bt.powers.tolist() == [p for _, p in pairs]  # bit-equal
    assert src not in bt.ids_list
    return bt


def static_models(points):
    return [StaticPosition(x, y) for x, y in points]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.sampled_from(sorted(FIELDS)),
    moving=st.booleans(),
)
def test_fused_miss_matches_per_pair_list(seed, n, moving):
    w, h = FIELDS[n]
    rng = np.random.default_rng(seed)

    def models():
        if moving:
            streams = RngStreams(seed)
            return [
                RandomWaypoint(Field(w, h), streams.stream(f"m{i}"),
                               max_speed=20.0, pause_time=1.0)
                for i in range(n)
            ]
        return static_models(np.random.default_rng(seed).uniform(
            (0.0, 0.0), (w, h), size=(n, 2)))

    fused, oracle = make_channel(models()), make_channel(models())
    # The same sources every epoch, so their cell blocks are asked for
    # again: after epochs far enough apart that moving nodes changed
    # grid cell (cached blocks must have been dropped), then after two
    # close ones (they are kept).
    srcs = rng.integers(n, size=6).tolist()
    for tq in (0.0, 40.0, 80.0, 80.005, 80.01):
        for src in srcs:
            assert_same_fanout(fused, oracle, src, tq)


@pytest.mark.parametrize("n", sorted(FIELDS))
def test_colocated_boundary_and_corner(n):
    """``d2 == 0`` receivers, a receiver at exactly the carrier-sense
    range (and one a float past it), and a source in the corner cell."""
    w, h = FIELDS[n]
    r = make_channel(static_models([(0.0, 0.0)])).max_range
    pts = np.random.default_rng(n).uniform((0.0, 0.0), (w, h), size=(n, 2))
    pts[0] = (0.0, 0.0)  # corner-cell source
    pts[1] = (0.0, 0.0)  # co-located with it
    pts[2] = (r, 0.0)  # d2 == r * r exactly
    pts[3] = (0.0, math.nextafter(r, math.inf))
    pts[4] = pts[5] = (w / 2, h / 2)  # a co-located pair mid-field
    fused = make_channel(static_models(pts))
    oracle = make_channel(static_models(pts))
    for src in range(8):
        bt = assert_same_fanout(fused, oracle, src, 0.0)
        if src == 0:
            assert bt.ids_list[0] == 1
            assert bt.pw_list[0] == WAVELAN_914MHZ.tx_power
            assert 2 in bt.ids_list and 3 not in bt.ids_list
        if src == 4:
            assert bt.pw_list[bt.ids_list.index(5)] == WAVELAN_914MHZ.tx_power


def test_two_ray_single_where_branch_is_elementwise_identical():
    model = TwoRayGround()
    tx = WAVELAN_914MHZ.tx_power
    d2 = np.random.default_rng(3).uniform(1e-6, 700.0 ** 2, size=500)
    assert d2.min() > 0.0
    fast = model.rx_power_d2_vec(tx, d2)
    # A zero anywhere routes the whole vector through the guarded form.
    guarded = model.rx_power_d2_vec(tx, np.append(d2, 0.0))
    assert fast.tolist() == guarded[:-1].tolist()
    assert guarded[-1] == tx
    assert fast.tolist() == [model.rx_power_d2(tx, float(v)) for v in d2]
    assert model.rx_power_d2_vec(tx, np.empty(0)).shape == (0,)
