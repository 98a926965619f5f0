"""DropLedger: the one call every terminal packet drop goes through."""

import pytest

from repro.core.drops import TERMINAL, DropLedger, DropReason
from repro.core.simulator import Simulator
from repro.mac.ifq import InterfaceQueue
from repro.net.packet import Packet, PacketKind
from repro.net.sendbuffer import SendBuffer
from repro.obs.flight import FlightRecorder


def _data(dst=1):
    return Packet(PacketKind.DATA, "cbr", 0, dst, 64, created=0.0)


def _control():
    return Packet(PacketKind.CONTROL, "aodv", 0, -1, 24, created=0.0)


def test_every_terminal_reason_is_counted():
    ledger = DropLedger()
    terminal = [r for r in DropReason if r in TERMINAL]
    for k, reason in enumerate(terminal, 1):
        for _ in range(k):
            ledger.drop(_data(), reason, node=3)
    assert ledger.counts == {r: k for k, r in enumerate(terminal, 1)}
    assert list(ledger.counts) == terminal  # DropReason order
    assert ledger.nonzero() == {r.value: k for k, r in enumerate(terminal, 1)}


def test_frame_level_reasons_are_refused():
    ledger = DropLedger()
    with pytest.raises(KeyError):
        ledger.drop(_data(), DropReason.MAC_RETRY_LIMIT, node=0)
    assert ledger.nonzero() == {}


def test_control_packets_are_counted_but_not_recorded():
    ledger = DropLedger()
    ledger.flight = recorder = FlightRecorder(trace=True)
    ledger.drop(_control(), DropReason.IFQ_FULL, node=2)
    assert ledger.nonzero() == {"ifq_full": 1}
    assert recorder.events == []


def test_recorder_is_called_only_when_attached():
    calls = []

    class Spy:
        def drop(self, packet, reason, node):
            calls.append((packet, reason, node))

    ledger = DropLedger()
    p = _data()
    ledger.drop(p, DropReason.NO_ROUTE, node=4)
    assert calls == []
    ledger.flight = Spy()
    ledger.drop(p, DropReason.LINK_LOST, node=5)
    assert calls == [(p, DropReason.LINK_LOST, 5)]
    assert ledger.nonzero() == {"no_route": 1, "link_lost": 1}


def test_simulator_keeps_the_recorder_on_its_ledger():
    sim = Simulator()
    assert sim.flight is None and sim.drops.flight is None
    sim.flight = recorder = FlightRecorder(sim)
    assert sim.drops.flight is recorder
    p = _data()
    recorder.inject(p)
    sim.drops.drop(p, DropReason.TTL_EXPIRED, node=0)
    assert recorder.report()["drops_by_reason"] == {"ttl_expired": 1}


def test_standalone_send_buffer_counts_into_its_own_ledger():
    a, b = SendBuffer(capacity=1), SendBuffer(capacity=1)
    assert a.drops is not b.drops
    a.add(_data(), now=0.0)
    a.add(_data(), now=0.0)
    assert a.drops.nonzero() == {"send_buffer_full": 1}
    assert b.drops.nonzero() == {}


def test_standalone_interface_queue_counts_into_its_own_ledger():
    a, b = InterfaceQueue(1), InterfaceQueue(1)
    assert a.drops is not b.drops
    assert a.push(_data(), 1)
    assert not a.push(_data(), 1)
    assert a.drops.nonzero() == {"ifq_full": 1}
    assert b.drops.nonzero() == {}


def test_owned_buffers_share_the_simulators_ledger():
    sim = Simulator()
    sim.flight = recorder = FlightRecorder(sim, trace=True)
    buf = SendBuffer(capacity=1, drops=sim.drops, addr=7)
    ifq = InterfaceQueue(1, sim.drops, 8)
    buf.add(_data(), now=0.0)
    buf.add(_data(), now=0.0)
    ifq.push(_data(), 1)
    ifq.push(_data(), 1)
    assert sim.drops.nonzero() == {"send_buffer_full": 1, "ifq_full": 1}
    assert [(e["node"], e["reason"]) for e in recorder.events] == [
        (7, "send_buffer_full"), (8, "ifq_full"),
    ]
