"""The clean-frame end against the per-node path.

With the contention arena attached, a *clean* frame ends on the
``ArrivalLedger`` with array stores, and Python walks only its
addressee and the MACs parked in a contention state
(``Channel._end_clean``). A frame is clean when its fan-out took the
quiet path, no other fan-out and no ``power_off``/``power_on``
happened before it ended, and it is unicast with no snooping MAC on a
DATA frame. Each case below breaks one of those conditions on a frame
that otherwise would be clean, and runs the same script on a network
from ``build_network`` twice: once with the arena (the engine
``build_scenario`` attaches) and once on the per-node path, which
walks every receiver. Radio counters, every MAC's NAV and state, and
a digest of the whole run must agree bit for bit.
"""

import functools
import hashlib
import json
from types import SimpleNamespace

import pytest

from repro.core import Simulator
from repro.mac import DcfMac
from repro.mac.base import MacStats
from repro.mac.frames import Frame, FrameType, reset_frame_uids
from repro.mobility import StaticPosition
from repro.net import build_network
from repro.net.packet import BROADCAST, Packet, PacketKind, reset_packet_uids
from repro.phy.channel import Channel
from repro.phy.radio import RadioStats
from repro.routing.aodv import Aodv
from repro.routing.dsr import Dsr

#: Two-ray ground: 250 m decode range, 550 m carrier-sense range. Node
#: 0 sends to 1; 2 and 3 decode 0's frames as bystanders and 4 only
#: senses them. Node 5 cannot sense 0, but at 2 it arrives less than
#: 10 dB below 0's frames, so it corrupts 2's decode of them.
POSITIONS = [(0.0, 0.0), (200.0, 0.0), (-240.0, 0.0), (100.0, 150.0),
             (450.0, 0.0), (-660.0, 0.0)]
TARGET_SIZE = 1500


def _target(frame) -> bool:
    pkt = frame.payload
    return (frame.ftype == FrameType.DATA and frame.src == 0
            and pkt is not None and pkt.size >= TARGET_SIZE)  # + DSR header


@pytest.fixture
def spy(monkeypatch):
    """Record each frame end's quiet-and-undisturbed verdict and which
    frames ended clean, and run ``spy.disturb(channel, frame)`` when
    the target DATA frame first goes on the air."""
    # ended: (frame, quiet fan-out with the epoch still its own) per end
    rec = SimpleNamespace(ended=[], clean=[], disturb=None, seen=False)
    transmit = Channel.transmit
    end = Channel._end_transmission
    end_clean = Channel._end_clean

    def spy_transmit(self, src, frame, duration):
        transmit(self, src, frame, duration)
        if rec.disturb is not None and not rec.seen and _target(frame):
            rec.seen = True
            rec.disturb(self, frame)

    def spy_end(self, src, frame, batch):
        undisturbed = (batch.targets is not None
                       and batch.epoch == self._ledger.epoch)
        rec.ended.append((frame, undisturbed))
        end(self, src, frame, batch)

    def spy_end_clean(self, src, frame, batch, *args):
        rec.clean.append(frame)
        end_clean(self, src, frame, batch, *args)

    monkeypatch.setattr(Channel, "transmit", spy_transmit)
    monkeypatch.setattr(Channel, "_end_transmission", spy_end)
    monkeypatch.setattr(Channel, "_end_clean", spy_end_clean)
    return rec


def _run(spy, arena, routing=Aodv, promiscuous=False, disturb=None):
    """One scripted run; returns ``(radio stats, mac states, digest)``."""
    spy.ended.clear()
    spy.clean.clear()
    spy.disturb = disturb
    spy.seen = False
    reset_packet_uids()
    reset_frame_uids()
    sim = Simulator(seed=4)
    net = build_network(
        sim, [StaticPosition(x, y) for x, y in POSITIONS],
        routing_factory=routing,
        mac_factory=functools.partial(DcfMac, promiscuous=promiscuous),
    )
    if arena:
        assert net.channel.enable_arena()
    net.start_routing()
    log = []
    for node in net.nodes:
        nid = node.node_id
        node.register_receiver(
            lambda pkt, prev, nid=nid: log.append((sim.now, nid, pkt.uid, prev)))
        snoop = getattr(node.routing, "snoop", None)
        if snoop is not None:
            def logged(pkt, prev, dst, nid=nid, snoop=snoop):
                log.append(("snoop", sim.now, nid, pkt.uid))
                snoop(pkt, prev, dst)
            node.routing.snoop = logged
    # A small packet first finds the route; the target then crosses an
    # idle channel.
    sim.schedule(0.5, net.nodes[0].send, 1, 64)
    sim.schedule(2.0, net.nodes[0].send, 1, TARGET_SIZE)
    sim.run(until=4.0)
    net.channel.flush_phy_stats()
    radios = [{k: getattr(n.radio.stats, k) for k in RadioStats.__slots__}
              for n in net.nodes]
    macs = [(n.mac._nav, n.mac._state,
             {k: getattr(n.mac.stats, k) for k in MacStats.__slots__})
            for n in net.nodes]
    blob = json.dumps([radios, macs, log, sim.events_processed])
    return radios, macs, hashlib.sha256(blob.encode()).hexdigest()


def _assert_same(spy, **kwargs):
    """Arena and per-node runs agree; returns the arena run's spy log."""
    arena = _run(spy, True, **kwargs)
    ended, clean = list(spy.ended), list(spy.clean)
    per_node = _run(spy, False, **kwargs)
    assert not spy.clean  # the per-node path walks every receiver
    assert arena[0] == per_node[0]  # RadioStats
    assert arena[1] == per_node[1]  # every MAC's NAV, state and counters
    assert arena[2] == per_node[2]
    return ended, clean


def _target_end(ended):
    [(frame, undisturbed)] = [e for e in ended if _target(e[0])]
    return frame, undisturbed


def test_undisturbed_unicast_ends_clean(spy):
    ended, clean = _assert_same(spy)
    frame, undisturbed = _target_end(ended)
    assert undisturbed and frame in clean


def test_second_transmission_inside_the_airtime(spy):
    def disturb(channel, frame):
        # Node 5 cannot sense node 0; its short frame starts and ends
        # inside the target's airtime and corrupts node 2's decode.
        loud = Frame.data(5, BROADCAST, Packet(PacketKind.DATA, "cbr", 5,
                                               BROADCAST, 32, created=0.0))
        channel.sim.schedule(0.5e-3, channel.radios[5].transmit, loud)

    ended, clean = _assert_same(spy, disturb=disturb)
    frame, undisturbed = _target_end(ended)
    assert not undisturbed and frame not in clean


def test_receiver_powered_off_and_on_inside_the_airtime(spy):
    def disturb(channel, frame):
        # A decoding bystander crashes and recovers mid-frame: its
        # decode dies, so the frame's decoders are no longer intact.
        radio = channel.radios[3]
        channel.sim.schedule(1e-3, radio.power_off)
        channel.sim.schedule(2e-3, radio.power_on)

    ended, clean = _assert_same(spy, disturb=disturb)
    frame, undisturbed = _target_end(ended)
    assert not undisturbed and frame not in clean


def test_promiscuous_dsr_data_frame(spy):
    ended, clean = _assert_same(spy, routing=Dsr, promiscuous=True)
    frame, undisturbed = _target_end(ended)
    # Quiet and undisturbed, but bystanders snoop DATA: full walk.
    assert undisturbed and frame not in clean
    # DSR's other unicast frames (RTS/CTS/ACK) still end clean.
    assert clean and all(f.ftype != FrameType.DATA for f in clean)


def test_broadcast(spy):
    ended, clean = _assert_same(spy)
    broadcasts = [undisturbed for f, undisturbed in ended
                  if f.dst == BROADCAST]
    # AODV's route requests cross a quiet channel undisturbed, yet
    # every receiver takes delivery: full walk.
    assert any(broadcasts)
    assert all(f.dst != BROADCAST for f in clean)
