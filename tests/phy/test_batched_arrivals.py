"""Unit tests for the PHY arrival engine on the shared ledger.

The brute-force reference for the reception rules is
``tests/phy/test_phy_oracle.py``; these tests pin the engine's
unit-level contracts: reception outcomes on hand-built topologies (with
PHY tracing off and on, which must not change them), the NAV-only
overhear shortcut, and the ledger's scalar bookkeeping.
"""

import pytest

from repro.core import Simulator
from repro.mac.frames import Frame, FrameType
from repro.mobility import MobilityManager, line_placement
from repro.net.packet import BROADCAST, Packet, PacketKind
from repro.obs.flight import FlightRecorder
from repro.phy import Channel, Radio, RadioParams, UnitDisk


class BatchFakeMac:
    """Callback recorder that overhears by NAV, as DCF does."""

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


def build(spacing, n, radius=250.0, mac_cls=BatchFakeMac, traced=False):
    sim = Simulator(seed=1)
    if traced:
        sim.flight = FlightRecorder(sim, trace=True)
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
    return sim, chan, radios, macs


def data_frame(src, dst, size=64):
    pkt = Packet(PacketKind.DATA, "test", src, dst, size, created=0.0)
    return Frame.data(src, dst, pkt)


# ------------------------------------------------------------ reception


def phy_notes(sim):
    """``(ev, origin, node)`` of every traced PHY verdict, in order."""
    return [(e["ev"], e["origin"], e["node"]) for e in sim.flight.events
            if e["ev"].startswith("phy_") and e["ev"] != "phy_tx"]


@pytest.mark.parametrize("traced", [True, False])
def test_broadcast_reaches_all_in_range(traced):
    sim, chan, radios, macs = build(200.0, 3, traced=traced)
    f = data_frame(0, BROADCAST)
    radios[0].transmit(f)
    sim.run()
    chan.flush_phy_stats()
    assert len(macs[1].received) == 1  # 200 m: in range
    assert len(macs[2].received) == 0  # 400 m: out of range
    assert macs[0].tx_done == [f]
    if traced:
        uid = f.payload.origin_uid
        assert phy_notes(sim) == [("phy_decode_start", uid, 1)]


@pytest.mark.parametrize("traced", [True, False])
def test_collision_corrupts_both(traced):
    sim, chan, radios, macs = build(200.0, 3, traced=traced)
    first, second = data_frame(0, BROADCAST), data_frame(2, BROADCAST)
    sim.schedule(0.0, radios[0].transmit, first)
    sim.schedule(0.0, radios[2].transmit, second)
    sim.run()
    chan.flush_phy_stats()
    # Equal powers at the middle node: neither captures.
    assert macs[1].received == []
    assert radios[1].stats.collisions > 0
    if traced:
        # The newcomer's verdict first, then the decode it kills.
        a, b = first.payload.origin_uid, second.payload.origin_uid
        assert phy_notes(sim) == [("phy_decode_start", a, 1),
                                  ("phy_collision", b, 1),
                                  ("phy_collision", a, 1)]


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
