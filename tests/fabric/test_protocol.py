"""Wire protocol: frames, summary payloads, and the sync channel."""

import socket

import pytest

from repro.core.errors import ConfigurationError, FabricError
from repro.fabric.protocol import (
    MAX_FRAME_BYTES,
    FabricProtocolError,
    LineChannel,
    decode_frame,
    encode_frame,
    parse_address,
)
from repro.stats.metrics import MetricsSummary


class TestFrames:
    def test_round_trip(self):
        msg = {"type": "lease", "lease": 7, "config": {"seed": 1}, "x": None}
        assert decode_frame(encode_frame(msg)) == msg

    def test_frame_is_one_line(self):
        assert encode_frame({"a": 1}).endswith(b"\n")
        assert b"\n" not in encode_frame({"s": "multi\nline"})[:-1]

    def test_oversized_frame_rejected(self):
        with pytest.raises(FabricProtocolError):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_garbage_rejected(self):
        with pytest.raises(FabricProtocolError):
            decode_frame(b"not json at all\n")
        with pytest.raises(FabricProtocolError):
            decode_frame(b"[1, 2, 3]\n")  # frames must be objects


    @pytest.mark.parametrize("line", [
        b"[" * 200000 + b"\n",          # nesting bomb (RecursionError)
        b'{"a": ' * 200000 + b"\n",
        b"\xff\xfe\x00garbage\n",       # not UTF-8
        b"",
    ])
    def test_hostile_bytes_are_protocol_errors(self, line):
        with pytest.raises(FabricProtocolError):
            decode_frame(line)


class TestSummaryPayloads:
    """Summaries ride inside frames as ``MetricsSummary.to_dict()``."""

    def test_summary_round_trips_through_a_frame(self, make_summary):
        summary = make_summary(4, normalized_mac_load=float("inf"))
        frame = encode_frame({"type": "point", "summary": summary.to_dict()})
        back = MetricsSummary.from_dict(decode_frame(frame)["summary"])
        assert back == summary
        assert back.flows[4].delays == summary.flows[4].delays

    def test_corrupt_payload_is_typed_error(self):
        for payload in ("definitely-not-base64-pickle!", None, [], {"pdr": 0.9}):
            with pytest.raises(ConfigurationError):
                MetricsSummary.from_dict(payload)


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("127.0.0.1:7653") == ("127.0.0.1", 7653)

    @pytest.mark.parametrize("bad", ["nohost", "host:", "host:notaport", ""])
    def test_rejects_malformed(self, bad):
        with pytest.raises(FabricError):
            parse_address(bad)


class TestLineChannel:
    def _pair(self):
        a, b = socket.socketpair()
        return LineChannel(a), LineChannel(b)

    def test_send_recv(self):
        left, right = self._pair()
        try:
            left.send({"type": "hello", "n": 1})
            left.send({"type": "bye"})
            assert right.recv(timeout=5.0) == {"type": "hello", "n": 1}
            assert right.recv(timeout=5.0) == {"type": "bye"}
        finally:
            left.close()
            right.close()

    def test_eof_returns_none(self):
        left, right = self._pair()
        try:
            left.close()
            assert right.recv(timeout=5.0) is None
        finally:
            right.close()

    def test_garbage_line_is_protocol_error(self):
        a, b = socket.socketpair()
        chan = LineChannel(b)
        try:
            a.sendall(b"}{ broken\n")
            with pytest.raises(FabricProtocolError):
                chan.recv(timeout=5.0)
        finally:
            a.close()
            chan.close()
