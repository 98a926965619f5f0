"""FlightRecorder unit contract: ledger rules and trace export.

The recorder's state machine is the foundation the conservation gate
stands on, so its edge rules are pinned directly: delivery beats any
drop, the first terminal reason beats later ones, verdicts observed
before injection are parked and claimed, and a recorder without a trace
keeps the accounting but no events.
"""

import json

import pytest

from repro.core.drops import TERMINAL_VALUES, DropReason
from repro.core.errors import ConfigurationError
from repro.net.packet import Packet, PacketKind
from repro.obs.flight import (
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    flight_jsonl_str,
    flight_to_chrome,
    load_flight_jsonl,
    report_from_state,
    write_flight_jsonl,
)


def _pkt(src=0, dst=1, kind=PacketKind.DATA, origin=None):
    p = Packet(kind, "test", src, dst, 64, created=0.0)
    if origin is not None:
        p.origin_uid = origin
    return p


class TestLedgerRules:
    def test_inject_then_deliver_conserves(self):
        rec = FlightRecorder()
        p = _pkt()
        rec.inject(p)
        rec.deliver(p, node=1)
        report = rec.report()
        assert report["offered"] == 1
        assert report["delivered"] == 1
        assert report["conserved"] is True

    def test_delivery_wins_over_later_drop(self):
        # Multi-copy protocols can lose a copy of a packet that already
        # arrived; the ledger keeps the delivery.
        rec = FlightRecorder()
        p = _pkt()
        rec.inject(p)
        rec.deliver(p, node=1)
        rec.drop(p, DropReason.NO_ROUTE, node=2)
        report = rec.report()
        assert report["delivered"] == 1
        assert report["drops_by_reason"] == {}
        assert report["conserved"] is True

    def test_first_terminal_reason_wins(self):
        rec = FlightRecorder()
        p = _pkt()
        rec.inject(p)
        rec.drop(p, DropReason.IFQ_FULL, node=2)
        rec.drop(p, DropReason.LINK_LOST, node=3)
        assert rec.report()["drops_by_reason"] == {"ifq_full": 1}

    def test_predrop_claimed_at_injection(self):
        # CbrSource originates through the routing agent *before* the
        # metrics on_send hook fires, so a synchronous no-route drop is
        # observed before inject and must be parked, not lost.
        rec = FlightRecorder()
        p = _pkt()
        rec.drop(p, DropReason.NO_ROUTE, node=0)
        rec.inject(p)
        report = rec.report()
        assert report["offered"] == 1
        assert report["drops_by_reason"] == {"no_route": 1}
        assert report["conserved"] is True

    def test_control_and_none_packets_ignored(self):
        rec = FlightRecorder()
        rec.drop(None, DropReason.NO_ROUTE)
        rec.drop(_pkt(kind=PacketKind.CONTROL), DropReason.IFQ_FULL)
        assert rec.report()["offered"] == 0
        assert not rec._state and not rec._predrop

    def test_frame_level_reasons_are_not_terminal(self):
        # MAC retry exhaustion is a *frame* fate — the routing layer
        # decides the packet's (salvage, re-buffer, repair, or drop).
        rec = FlightRecorder()
        p = _pkt()
        rec.inject(p)
        rec.drop(p, DropReason.MAC_RETRY_LIMIT, node=2)
        report = rec.report()
        assert report["drops_by_reason"] == {}
        assert report["unaccounted"] == 1  # still live, not consumed
        assert "mac_retry_limit" not in TERMINAL_VALUES

    def test_in_flight_residue_counts_as_accounted(self):
        rec = FlightRecorder()
        p = _pkt()
        rec.inject(p)
        assert rec._mark_in_flight(p) == 1
        report = rec.report()
        assert report["in_flight"] == 1
        assert report["conserved"] is True


class TestSampling:
    def test_no_trace_means_no_events(self):
        rec = FlightRecorder(trace=False)
        p = _pkt()
        rec.inject(p)
        rec.note("forward", p.origin_uid, 3)
        rec.deliver(p, node=1)
        assert rec.events == []
        assert rec.report()["delivered"] == 1


class TestReportMath:
    def test_report_from_state_identity(self):
        state = {
            1: "delivered", 2: "delivered", 3: "no_route",
            4: "in_flight", 5: "ifq_full",
        }
        report = report_from_state(5, state)
        assert report["offered"] == 5
        assert report["delivered"] == 2
        assert report["in_flight"] == 1
        assert report["drops_by_reason"] == {"ifq_full": 1, "no_route": 1}
        assert report["unaccounted"] == 0
        assert report["conserved"] is True

    def test_live_leftovers_break_conservation(self):
        report = report_from_state(2, {1: "delivered", 2: "live"})
        assert report["unaccounted"] == 1
        assert report["conserved"] is False

    def test_missing_entries_break_conservation(self):
        # offered counted but state lost: the identity must fail loudly.
        report = report_from_state(3, {1: "delivered"})
        assert report["conserved"] is False


class TestExport:
    def _traced(self):
        rec = FlightRecorder(trace=True)
        p = _pkt(origin=0, src=5, dst=9)
        rec.inject(p)
        rec.note("forward", 0, 7, next_hop=9)
        rec.deliver(p, node=9)
        return rec.summary_dict()

    def test_jsonl_round_trip(self, tmp_path):
        flight = self._traced()
        path = tmp_path / "flight.jsonl"
        write_flight_jsonl(flight, path)
        loaded = load_flight_jsonl(path)
        assert loaded["schema"] == FLIGHT_SCHEMA_VERSION
        assert loaded["events"] == flight["events"]
        assert loaded["offered"] == flight["offered"]
        assert loaded["conserved"] is True

    def test_jsonl_unwritable_path_is_a_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot write"):
            write_flight_jsonl(self._traced(), tmp_path / "gone" / "f.jsonl")

    def test_jsonl_str_shape(self):
        lines = flight_jsonl_str(self._traced()).splitlines()
        assert json.loads(lines[0])["flight_schema"] == FLIGHT_SCHEMA_VERSION
        assert "report" in json.loads(lines[-1])
        assert json.loads(lines[1])["ev"] == "inject"

    def test_load_ignores_an_old_sample_header(self, tmp_path):
        # Traces written while the recorder could thin its events carry
        # a ``sample`` in the header; they still load, events intact.
        path = tmp_path / "sampled.jsonl"
        path.write_text(
            '{"flight_schema": 1, "sample": 4}\n'
            '{"t": 1.0, "ev": "inject", "origin": 4, "node": 0}\n'
            '{"report": {"offered": 1, "delivered": 0, "in_flight": 1, '
            '"unaccounted": 0, "drops_by_reason": {}, "conserved": true}}\n'
        )
        loaded = load_flight_jsonl(path)
        assert loaded["schema"] == 1
        assert "sample" not in loaded
        assert loaded["events"] == [
            {"t": 1.0, "ev": "inject", "origin": 4, "node": 0}
        ]
        assert loaded["conserved"] is True

    def test_load_tolerates_headerless_events_only(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        path.write_text(
            '{"t": 1.0, "ev": "inject", "origin": 3, "node": 0}\n'
        )
        loaded = load_flight_jsonl(path)
        assert loaded["schema"] == FLIGHT_SCHEMA_VERSION
        assert len(loaded["events"]) == 1

    def test_chrome_export_draws_flows(self):
        chrome = flight_to_chrome(self._traced())
        events = chrome["traceEvents"]
        instants = [e for e in events if e["ph"] == "i"]
        flows = [e for e in events if e["ph"] in ("s", "t", "f")]
        assert len(instants) == 3
        # A 3-event packet chains start -> step -> finish.
        assert [f["ph"] for f in flows] == ["s", "t", "f"]
        assert flows[-1]["bp"] == "e"
        # Timestamps are microseconds on tid = node.
        assert instants[0]["tid"] == 5
        assert all(e["cat"] == "flight" for e in events)

    def test_chrome_export_single_event_has_no_flow(self):
        rec = FlightRecorder(trace=True)
        p = _pkt(origin=0)
        rec.inject(p)
        chrome = flight_to_chrome(rec.summary_dict())
        assert all(e["ph"] == "i" for e in chrome["traceEvents"])


def test_terminal_values_cover_every_terminal_member():
    terminal = {
        DropReason.NO_ROUTE, DropReason.TTL_EXPIRED,
        DropReason.SEND_BUFFER_FULL, DropReason.SEND_BUFFER_EXPIRED,
        DropReason.SEND_BUFFER_GIVEUP, DropReason.IFQ_FULL,
        DropReason.IFQ_EVICTED, DropReason.LINK_LOST,
        DropReason.SALVAGE_LIMIT, DropReason.NODE_DOWN,
        DropReason.CRASH_QUEUE,
    }
    assert {r.value for r in terminal} == set(TERMINAL_VALUES)


def test_recorder_reads_sim_clock():
    class FakeSim:
        _now = 2.5

    rec = FlightRecorder(sim=FakeSim(), trace=True)
    p = _pkt(origin=0)
    rec.inject(p)
    assert rec.events[0]["t"] == pytest.approx(2.5)
