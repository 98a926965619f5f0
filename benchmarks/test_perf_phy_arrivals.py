"""Arrival-pipeline microbenchmark: the batched PHY engine in isolation.

``test_perf_large_scenario`` pays the whole stack; this bench strips
the MAC and routing layers down to a no-op batch-safe stub so the
timed region is almost entirely the channel's fan-out resolution and
end-of-frame batch resolve — the batched arrival engine.

Topology: 150 static nodes on a dense grid, every node within carrier
sense of dozens of others, sources striding across the field so both
the quiet-channel fast path and the interference ledger's general path
are exercised.

The two ``test_perf_fanout_miss_*`` rows time what happens *before* that
pipeline when the memo misses: one ``Channel._build_targets_batched``
call on a moving field, 25 sources per 5 ms position epoch (the miss
density of a 1000-node AODV flood), so the snapshot and the grid update
are paid once per 25 calls as they are in a run.
"""

import itertools

from repro.core import Simulator
from repro.core.rng import RngStreams
from repro.mac.base import MacLayer
from repro.mac.frames import Frame, FrameType
from repro.mobility import Field, MobilityManager, RandomWaypoint
from repro.mobility.static import grid_placement
from repro.net.packet import BROADCAST
from repro.phy import WAVELAN_914MHZ, Channel, Radio, TwoRayGround

N_NODES = 150
N_FRAMES = 400
FRAME_TIME = 0.5e-3  # 500 byte-ish frame at 2 Mb/s


class _SinkMac(MacLayer):
    """Batch-safe MAC that swallows everything (PHY cost only)."""

    batch_safe = True
    batch_overhear = True

    def on_frame_received(self, frame, rx_power):
        pass

    def on_transmit_done(self, frame):
        pass

    def overhear_nav(self, until):
        pass


def _build():
    sim = Simulator(seed=3)
    field = Field(1200.0, 900.0)
    mobility = MobilityManager(grid_placement(field, N_NODES))
    channel = Channel(sim, mobility, TwoRayGround(), WAVELAN_914MHZ)
    radios = []
    for nid in range(N_NODES):
        radio = Radio(sim, nid, WAVELAN_914MHZ)
        channel.attach(radio)
        _SinkMac(sim, radio)
        radios.append(radio)
    assert channel.enable_batched()
    return sim, channel, radios


def _run() -> int:
    sim, channel, radios = _build()
    # Overlapping broadcasts from striding sources: consecutive frames
    # come from far-apart nodes, so transmissions routinely overlap in
    # time at shared receivers and the interference ledger has work.
    for i in range(N_FRAMES):
        src = radios[(i * 37) % N_NODES]
        frame = Frame(FrameType.RTS, src.node_id, BROADCAST, 44)
        sim.schedule(i * FRAME_TIME * 0.6, src.transmit, frame)
    sim.run()
    channel.flush_phy_stats()
    return sum(r.stats.frames_received for r in radios)


def test_perf_phy_arrivals(benchmark):
    """Batched engine: fan-out + ledger resolve for 400 broadcasts."""
    received = benchmark(_run)
    assert received > 0


def _miss_bench(benchmark, n_nodes: int, field: Field) -> None:
    sim = Simulator(seed=3)
    streams = RngStreams(3)
    mobility = MobilityManager([
        RandomWaypoint(field, streams.stream(f"m{i}"), max_speed=20.0)
        for i in range(n_nodes)
    ])
    channel = Channel(sim, mobility, TwoRayGround(), WAVELAN_914MHZ,
                      position_quantum=0.005)
    for nid in range(n_nodes):
        channel.attach(Radio(sim, nid, WAVELAN_914MHZ))
    calls = itertools.count(1)

    def miss():
        k = next(calls)
        return channel._build_targets_batched(
            (k * 37) % n_nodes, 1.0 + (k // 25) * 0.005
        )

    assert len(benchmark(miss).ids_list) > 0


def test_perf_fanout_miss_dense(benchmark):
    """Memo miss on the paper's field: 50 nodes, every node a candidate."""
    _miss_bench(benchmark, 50, Field(1500.0, 300.0))


def test_perf_fanout_miss_grid(benchmark):
    """Memo miss behind the spatial grid: 1000 nodes on 44 cells."""
    _miss_bench(benchmark, 1000, Field(6000.0, 2000.0))
