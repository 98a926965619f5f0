"""Unit tests for the batched PHY arrival engine.

Scenario-level bit-identity with the per-pair path lives in
``tests/scenario/test_determinism.py``; these tests pin the engine's
unit-level contracts: when batching may switch on, reception outcomes
on hand-built topologies, the NAV-only overhear shortcut, the ledger's
scalar bookkeeping, and the ``begin_arrival`` end-time sentinel.
"""

import pytest

from repro.core import Simulator
from repro.mac.frames import Frame, FrameType
from repro.mobility import MobilityManager, line_placement
from repro.net.packet import BROADCAST, Packet, PacketKind
from repro.phy import Channel, Radio, RadioParams, UnitDisk


class BatchFakeMac:
    """Batch-safe callback recorder (quacks like a DCF for the engine)."""

    batch_safe = True
    batch_overhear = True
    promiscuous = False

    def __init__(self):
        self.received = []
        self.tx_done = []
        self.medium_events = 0
        self.navs = []

    def on_frame_received(self, frame, power):
        self.received.append((frame, power))

    def on_transmit_done(self, frame):
        self.tx_done.append(frame)

    def medium_changed(self):
        self.medium_events += 1

    def overhear_nav(self, until):
        self.navs.append(until)


def build(spacing, n, radius=250.0, batched=True, mac_cls=BatchFakeMac):
    sim = Simulator(seed=1)
    mob = MobilityManager(line_placement(spacing, n))
    params = RadioParams()
    chan = Channel(sim, mob, UnitDisk(radius), params)
    radios, macs = [], []
    for i in range(n):
        r = Radio(sim, i, params)
        m = mac_cls()
        r.mac = m
        chan.attach(r)
        radios.append(r)
        macs.append(m)
    if batched:
        assert chan.enable_batched()
    return sim, chan, radios, macs


def data_frame(src, dst, size=64):
    pkt = Packet(PacketKind.DATA, "test", src, dst, size, created=0.0)
    return Frame.data(src, dst, pkt)


# --------------------------------------------------------------- gating


def test_enable_batched_refuses_non_batch_safe_mac():
    class Reentrant(BatchFakeMac):
        batch_safe = False

    sim, chan, radios, macs = build(200.0, 2, batched=False, mac_cls=Reentrant)
    assert not chan.enable_batched()
    # The stack stays functional on the per-pair path.
    f = data_frame(0, 1)
    radios[0].transmit(f)
    sim.run()
    assert len(macs[1].received) == 1


def test_enable_batched_refuses_missing_radio():
    sim = Simulator(seed=1)
    mob = MobilityManager(line_placement(200.0, 3))
    params = RadioParams()
    chan = Channel(sim, mob, UnitDisk(250.0), params)
    r = Radio(sim, 0, params)
    r.mac = BatchFakeMac()
    chan.attach(r)  # ids 1 and 2 have no radio
    assert not chan.enable_batched()


# ------------------------------------------------------------ reception


@pytest.mark.parametrize("batched", [True, False])
def test_broadcast_reaches_all_in_range(batched):
    sim, chan, radios, macs = build(200.0, 3, batched=batched)
    f = Frame(FrameType.RTS, 0, BROADCAST, 44)
    radios[0].transmit(f)
    sim.run()
    chan.flush_phy_stats()
    assert len(macs[1].received) == 1  # 200 m: in range
    assert len(macs[2].received) == 0  # 400 m: out of range
    assert macs[0].tx_done == [f]


@pytest.mark.parametrize("batched", [True, False])
def test_collision_corrupts_both(batched):
    sim, chan, radios, macs = build(200.0, 3, batched=batched)
    sim.schedule(0.0, radios[0].transmit, Frame(FrameType.RTS, 0, BROADCAST, 44))
    sim.schedule(0.0, radios[2].transmit, Frame(FrameType.RTS, 2, BROADCAST, 44))
    sim.run()
    chan.flush_phy_stats()
    # Equal powers at the middle node: neither captures.
    assert macs[1].received == []
    assert radios[1].stats.collisions > 0


def test_powered_off_receiver_is_deaf_batched():
    sim, chan, radios, macs = build(200.0, 2)
    radios[1].power_off()
    radios[0].transmit(Frame(FrameType.RTS, 0, BROADCAST, 44))
    sim.run()
    chan.flush_phy_stats()
    assert macs[1].received == []
    assert radios[1].stats.down_rx_drops == 1


def test_batch_arrival_perf_counter_increments():
    sim, chan, radios, macs = build(200.0, 3)
    radios[0].transmit(Frame(FrameType.RTS, 0, BROADCAST, 44))
    sim.run()
    assert sim.perf.phy_batch_arrivals > 0
    assert sim.perf.phy_legacy_arrivals == 0


# ------------------------------------------------------------- overhear


def test_unicast_overhears_nav_only_on_third_party():
    sim, chan, radios, macs = build(100.0, 3)
    nav = 1.5e-3
    f = Frame(FrameType.RTS, 0, 1, 44, nav=nav)
    radios[0].transmit(f)
    sim.run()
    chan.flush_phy_stats()
    # Addressed node: full delivery. Third party: NAV update only.
    assert [fr for fr, _ in macs[1].received] == [f]
    assert macs[1].navs == []
    assert macs[2].received == []
    assert len(macs[2].navs) == 1
    end = f.airtime(radios[0].params.bitrate)
    assert macs[2].navs[0] == pytest.approx(end + nav)


def test_ack_overhear_sets_no_nav():
    sim, chan, radios, macs = build(100.0, 3)
    radios[0].transmit(Frame(FrameType.ACK, 0, 1, 14))
    sim.run()
    chan.flush_phy_stats()
    assert [f.ftype for f, _ in macs[1].received] == [FrameType.ACK]
    assert macs[2].received == []
    assert macs[2].navs == []


def test_promiscuous_mac_gets_full_data_delivery():
    class Snooper(BatchFakeMac):
        promiscuous = True

    sim, chan, radios, macs = build(100.0, 3, mac_cls=Snooper)
    f = data_frame(0, 1)
    radios[0].transmit(f)
    sim.run()
    chan.flush_phy_stats()
    # DSR-style snooping: overheard DATA must take the full path.
    assert [fr for fr, _ in macs[2].received] == [f]


# --------------------------------------------------------------- ledger


def test_ledger_scalar_twins_track_state():
    sim, chan, radios, macs = build(200.0, 3)
    led = chan._ledger
    assert (led.n_txing, led.n_down) == (0, 0)
    radios[1].power_off()
    radios[1].power_off()  # idempotent
    assert led.n_down == 1
    radios[1].power_on()
    radios[1].power_on()  # idempotent
    assert led.n_down == 0
    radios[0].transmit(Frame(FrameType.RTS, 0, BROADCAST, 44))
    assert led.n_txing == 1
    sim.run()
    assert led.n_txing == 0


# ----------------------------------------------------- begin_arrival API


def test_begin_arrival_end_sentinel_is_none():
    """Omitted *end* means "compute now + duration" — ``None``, not a
    negative float, is the sentinel, so every real timestamp (including
    0.0) is representable as an explicit end time."""
    sim, chan, radios, macs = build(200.0, 2, batched=False)
    f = Frame(FrameType.RTS, 0, BROADCAST, 44)
    entry = radios[1].begin_arrival(f, 1e-6, duration=2.0)
    assert entry is not None
    assert entry.end == pytest.approx(sim.now + 2.0)
    f2 = Frame(FrameType.RTS, 0, BROADCAST, 44)
    entry2 = radios[1].begin_arrival(f2, 1e-6, duration=2.0, end=0.0)
    assert entry2.end == 0.0
