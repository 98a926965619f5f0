"""Wire protocol for the sweep fabric: newline-delimited JSON frames.

Every fabric connection — worker→broker, client→broker — speaks the
same framing: one JSON object per ``\\n``-terminated line, UTF-8, with
a hard frame-size cap so a corrupt peer cannot balloon memory.
Configs travel as the canonical JSON dicts from :mod:`repro.scenario.io`,
so the sha256 config key means the same thing on every host; summaries
as :meth:`~repro.stats.metrics.MetricsSummary.to_dict` objects, which
every receiver validates with ``MetricsSummary.from_dict`` — nothing a
peer sends is ever executed.

Message vocabulary (``type`` field):

==================  =====================================================
``hello``           first frame on any connection; ``role`` is
                    ``worker`` or ``client``
``request``         worker asks for work (long-polled broker side)
``lease``           broker → worker: one sweep point + lease id,
                    heartbeat interval and job timeout
``idle``            broker → worker: nothing to do, retry after ``delay``
``heartbeat``       worker → broker: lease is alive (one-way)
``result``          worker → broker: ``ok`` + summary, or a typed failure
``sweep``           client → broker: jobs (index/key/config) + options
``point``           broker → client: one finished index (``cached`` marks
                    peer-cache answers that never touched a worker)
``point_failed``    broker → client: index exhausted the fleet's retries
``progress``        broker → client: keepalive with done/total/workers
``fleet-exhausted`` broker → client: no workers — listed indexes will
                    not be computed; run them locally
``done``            broker → client: sweep complete + fleet counters
``bye``/``shutdown``  orderly close in either direction
==================  =====================================================
"""

from __future__ import annotations

import json
import socket
from typing import Optional, Tuple

from ..core.errors import FabricError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "FabricProtocolError",
    "FabricUnavailable",
    "FabricConnectionLost",
    "encode_frame",
    "decode_frame",
    "parse_address",
    "LineChannel",
]

#: 2: summaries travel as JSON objects instead of base64 pickles.
PROTOCOL_VERSION = 2

#: Hard cap on one frame; a sweep message carries every config, so the
#: ceiling is generous, but a peer that exceeds it is broken by fiat.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FabricProtocolError(FabricError):
    """A peer sent a malformed or oversized frame."""


class FabricUnavailable(FabricError):
    """The broker could not be reached (connect/handshake failed)."""


class FabricConnectionLost(FabricError):
    """An established fabric connection died mid-conversation."""


def encode_frame(msg: dict) -> bytes:
    line = json.dumps(msg, separators=(",", ":")).encode("utf-8") + b"\n"
    if len(line) > MAX_FRAME_BYTES:
        raise FabricProtocolError(
            f"frame of {len(line)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return line


def decode_frame(line: bytes) -> dict:
    try:
        msg = json.loads(line)
    except (ValueError, RecursionError) as exc:  # bad JSON/UTF-8, deep nesting
        raise FabricProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(msg, dict):
        raise FabricProtocolError(f"frame is not an object: {type(msg).__name__}")
    return msg


def parse_address(address: str) -> Tuple[str, int]:
    """``host:port`` → (host, port); bare ``:port`` means localhost."""
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise FabricError(
            f"fabric address must look like host:port, got {address!r}"
        )
    return host or "127.0.0.1", int(port)


class LineChannel:
    """Synchronous NDJSON framing over one TCP socket.

    Used by the worker and the executor-side client (both are plain
    blocking processes; only the broker is asyncio). All socket-level
    failures surface as ``OSError`` — callers map them onto the
    fabric's failure taxonomy.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._rfile = sock.makefile("rb")

    def send(self, msg: dict) -> None:
        self.sock.sendall(encode_frame(msg))

    def recv(self, timeout: Optional[float] = None) -> Optional[dict]:
        """Next frame, or ``None`` on orderly EOF.

        Raises ``TimeoutError`` when *timeout* elapses with no frame and
        :class:`FabricProtocolError` on garbage or an oversized frame.
        """
        self.sock.settimeout(timeout)
        line = self._rfile.readline(MAX_FRAME_BYTES + 1)
        if not line:
            return None
        if len(line) > MAX_FRAME_BYTES:
            raise FabricProtocolError(
                f"frame exceeds {MAX_FRAME_BYTES} bytes"
            )
        return decode_frame(line)

    def close(self) -> None:
        for closer in (self._rfile.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass
