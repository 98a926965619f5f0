"""Radio reception rules and channel fan-out."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import ConfigurationError, SimulationError, Simulator
from repro.faults.manager import FaultManager
from repro.faults.plan import FaultPlanConfig
from repro.mac.frames import Frame
from repro.mobility import MobilityManager, StaticPosition, line_placement
from repro.net.packet import Packet, PacketKind
from repro.phy import Channel, Radio, RadioParams, TwoRayGround, UnitDisk


class FakeMac:
    """Records radio callbacks."""

    def __init__(self):
        self.received = []
        self.tx_done = []
        self.medium_events = 0

    def on_frame_received(self, frame, power):
        self.received.append((frame, power))

    def on_transmit_done(self, frame):
        self.tx_done.append(frame)

    def medium_changed(self):
        self.medium_events += 1


def build(spacing, n, radius=250.0, grid_threshold=128):
    sim = Simulator(seed=1)
    mob = MobilityManager(line_placement(spacing, n))
    params = RadioParams()
    chan = Channel(sim, mob, UnitDisk(radius), params, grid_threshold=grid_threshold)
    radios, macs = [], []
    for i in range(n):
        r = Radio(sim, i, params)
        m = FakeMac()
        r.mac = m
        chan.attach(r)
        radios.append(r)
        macs.append(m)
    return sim, chan, radios, macs


def data_frame(src, dst, size=64):
    pkt = Packet(PacketKind.DATA, "test", src, dst, size, created=0.0)
    return Frame.data(src, dst, pkt)


def test_in_range_node_receives():
    sim, chan, radios, macs = build(200.0, 2)
    f = data_frame(0, 1)
    radios[0].transmit(f)
    sim.run()
    assert len(macs[1].received) == 1
    assert macs[1].received[0][0] is f
    assert macs[0].tx_done == [f]


def test_out_of_range_node_does_not_receive():
    sim, chan, radios, macs = build(300.0, 2)  # beyond the 250 m disk
    radios[0].transmit(data_frame(0, 1))
    sim.run()
    assert macs[1].received == []


def test_broadcast_reaches_all_in_range():
    sim, chan, radios, macs = build(200.0, 3)  # 0-1 and 1-2 in range, 0-2 not
    radios[1].transmit(data_frame(1, -1))
    sim.run()
    assert len(macs[0].received) == 1
    assert len(macs[2].received) == 1


def test_sender_does_not_hear_itself():
    sim, chan, radios, macs = build(200.0, 2)
    radios[0].transmit(data_frame(0, 1))
    sim.run()
    assert macs[0].received == []


def test_collision_two_simultaneous_senders():
    # Nodes 0 and 2 both in range of node 1; equal power -> collision.
    sim, chan, radios, macs = build(200.0, 3)
    radios[0].transmit(data_frame(0, 1))
    radios[2].transmit(data_frame(2, 1))
    sim.run()
    assert macs[1].received == []
    assert radios[1].stats.collisions >= 1


def test_capture_stronger_frame_survives():
    # Two-ray: node 1 at 50 m (strong) vs node 2 at 240 m (weak); ratio
    # far exceeds the 10 dB capture threshold.
    sim = Simulator(seed=1)
    from repro.mobility import StaticPosition

    mob = MobilityManager(
        [StaticPosition(0, 0), StaticPosition(50, 0), StaticPosition(240, 0)]
    )
    params = RadioParams()
    chan = Channel(sim, mob, TwoRayGround(), params)
    radios = [Radio(sim, i, params) for i in range(3)]
    macs = [FakeMac() for _ in range(3)]
    for r, m in zip(radios, macs):
        r.mac = m
        chan.attach(r)
    strong = data_frame(1, 0)
    weak = data_frame(2, 0)
    radios[1].transmit(strong)
    radios[2].transmit(weak)
    sim.run()
    assert [f for f, _ in macs[0].received] == [strong]
    assert radios[0].stats.capture_ignored == 1


def test_half_duplex_no_rx_while_tx():
    sim, chan, radios, macs = build(200.0, 2)
    radios[0].transmit(data_frame(0, 1, size=512))
    radios[1].transmit(data_frame(1, 0, size=512))  # same instant
    sim.run()
    assert macs[0].received == []
    assert macs[1].received == []
    assert radios[0].stats.halfduplex_drops + radios[1].stats.halfduplex_drops >= 2


def test_transmit_while_transmitting_raises():
    sim, chan, radios, macs = build(200.0, 2)
    radios[0].transmit(data_frame(0, 1))
    with pytest.raises(SimulationError):
        radios[0].transmit(data_frame(0, 1))


def test_unattached_radio_raises():
    sim = Simulator()
    r = Radio(sim, 0, RadioParams())
    with pytest.raises(SimulationError):
        r.transmit(data_frame(0, 1))


def test_carrier_busy_during_foreign_transmission():
    sim, chan, radios, macs = build(200.0, 2)
    f = data_frame(0, 1, size=512)
    radios[0].transmit(f)
    dur = f.airtime(RadioParams().bitrate)
    seen = {}

    def probe():
        seen["busy"] = radios[1].carrier_busy()
        seen["busy_until"] = radios[1].busy_until()

    sim.schedule(dur / 2, probe)
    sim.run()
    assert seen["busy"] is True
    assert seen["busy_until"] > dur / 2
    assert radios[1].carrier_busy() is False  # after the run drains


def test_weak_signal_marks_busy_but_not_received():
    # 300 m apart: beyond 250 m RX range, within 550 m CS range.
    sim = Simulator(seed=1)
    mob = MobilityManager(line_placement(300.0, 2))
    params = RadioParams()
    chan = Channel(sim, mob, TwoRayGround(), params)
    radios = [Radio(sim, i, params) for i in range(2)]
    macs = [FakeMac() for _ in range(2)]
    for r, m in zip(radios, macs):
        r.mac = m
        chan.attach(r)
    f = data_frame(0, 1, size=512)
    radios[0].transmit(f)
    seen = {}
    sim.schedule(f.airtime(params.bitrate) / 2, lambda: seen.update(busy=radios[1].carrier_busy()))
    sim.run()
    assert seen["busy"] is True
    assert macs[1].received == []


def test_attach_validation():
    sim, chan, radios, macs = build(200.0, 2)
    extra = Radio(sim, 0, RadioParams())
    with pytest.raises(ConfigurationError):
        chan.attach(extra)  # id 0 taken
    extra2 = Radio(sim, 99, RadioParams())
    with pytest.raises(ConfigurationError):
        chan.attach(extra2)  # id out of range


def test_grid_path_equivalent_to_brute_force():
    # Force the grid (threshold=1) and compare with brute force (large).
    for thresh in (1, 128):
        sim, chan, radios, macs = build(200.0, 6, grid_threshold=thresh)
        radios[2].transmit(data_frame(2, -1))
        sim.run()
        got = [i for i, m in enumerate(macs) if m.received]
        assert got == [1, 3], f"grid_threshold={thresh}"


def test_channel_stats_counters():
    sim, chan, radios, macs = build(200.0, 3)
    radios[1].transmit(data_frame(1, -1))
    sim.run()
    assert chan.stats.transmissions == 1
    assert chan.stats.deliveries_attempted == 2
    assert chan.stats.airtime > 0


def test_per_pair_fanout_without_radio_raises():
    sim = Simulator(seed=1)
    params = RadioParams()
    chan = Channel(sim, MobilityManager(line_placement(200.0, 2)),
                   UnitDisk(250.0), params)
    r = Radio(sim, 0, params)
    r.mac = FakeMac()
    chan.attach(r)  # id 1 is in range but has no radio
    with pytest.raises(SimulationError, match="node 1 .* no radio"):
        r.transmit(data_frame(0, -1))


class OrderMac(FakeMac):
    """Batch-safe; logs ``(src, receiver, power)`` into a shared list."""

    batch_safe = True

    def __init__(self, nid, calls):
        super().__init__()
        self.nid = nid
        self.calls = calls

    def on_frame_received(self, frame, power):
        self.calls.append((frame.src, self.nid, power))


@pytest.mark.parametrize("link_loss", [0.0, 0.5])
def test_both_engines_call_receivers_in_the_same_order(link_loss):
    """One geometry memo and one fault filter behind both engines: the
    per-pair and the batched channel deliver to the same receivers in
    the same order and count the same arrivals."""
    points = np.random.default_rng(5).uniform((0, 0), (600, 600), size=(40, 2))

    def run(batched):
        sim = Simulator(seed=3)
        params = RadioParams()
        mob = MobilityManager([StaticPosition(x, y) for x, y in points])
        chan = Channel(sim, mob, TwoRayGround(), params)
        calls = []
        radios = []
        for i in range(len(points)):
            r = Radio(sim, i, params)
            r.mac = OrderMac(i, calls)
            chan.attach(r)
            radios.append(r)
        if link_loss:
            FaultManager(
                sim, SimpleNamespace(nodes=radios, channel=chan, mobility=mob),
                FaultPlanConfig(link_loss=link_loss), duration=1.0,
            )
        if batched:
            assert chan.enable_batched()
        for k, src in enumerate((0, 7, 19, 33)):
            sim.schedule(0.01 * k, radios[src].transmit, data_frame(src, -1))
        sim.run()
        return calls, sim.perf

    per_pair, perf_pp = run(batched=False)
    batch, perf_b = run(batched=True)
    assert per_pair and per_pair == batch
    assert perf_pp.phy_batch_arrivals == perf_b.phy_legacy_arrivals == 0
    assert perf_pp.phy_legacy_arrivals == perf_b.phy_batch_arrivals > 0
    assert perf_pp.fanout_cache_misses == perf_b.fanout_cache_misses == 4
