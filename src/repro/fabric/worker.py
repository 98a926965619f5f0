"""The fabric worker: leased execution in a killable job slot.

A worker is a plain synchronous process (the broker is the only
asyncio piece of the fabric): it dials the broker, long-polls for
leases, and runs each leased point in its one
:class:`~repro.scenario.slot.JobSlot`, the same killable child the
local pool uses. The slot's outcome is the lease's result
(``exception``, ``timeout``, ``worker_lost``); a SIGKILLed *worker*
stops heartbeating and the broker's reaper reassigns its lease
(``lease_expired``). While the child runs, the worker only waits on the
slot and heartbeats, so a live worker never loses a lease to heartbeat
starvation however hot the simulation loop is.

``chaos_sleep`` is a fault-injection affordance: the job function
sleeps that long before every job, so chaos tests get a deterministic
mid-lease window to SIGKILL into without perturbing the result.
"""

from __future__ import annotations

import functools
import os
import socket
import time
from typing import Optional

from ..scenario.slot import JobSlot, wait_any
from .protocol import LineChannel, PROTOCOL_VERSION, parse_address

__all__ = ["run_worker"]


def _run_job(config_dict: dict, chaos_sleep: float = 0.0) -> dict:
    """Run one sweep point; its summary as a JSON-ready dict."""
    from ..scenario.io import config_from_dict
    from ..scenario.run import run_scenario

    time.sleep(chaos_sleep)
    return run_scenario(config_from_dict(config_dict)).to_dict()


def _run_lease(chan: LineChannel, slot: JobSlot, lease: dict) -> dict:
    """Execute one lease in *slot*, heartbeating; returns the result frame."""
    hb_interval = float(lease.get("heartbeat_interval") or 0.5)
    timeout = float(lease.get("job_timeout") or 0.0)
    slot.start(lease.get("config") or {}, timeout if timeout > 0 else None)
    while (outcome := slot.outcome()) is None:
        if not wait_any([slot], hb_interval):
            # A dead broker socket aborts the lease here (the broker
            # will reassign it anyway).
            chan.send({"type": "heartbeat", "lease": lease["lease"]})
    kind, body = outcome
    frame = {"type": "result", "lease": lease["lease"], "key": lease.get("key"),
             "ok": kind == "ok"}
    frame.update({"summary": body} if kind == "ok" else {"kind": kind, "error": body})
    return frame


def run_worker(
    broker: str,
    worker_id: Optional[str] = None,
    max_jobs: Optional[int] = None,
    chaos_sleep: float = 0.0,
    connect_timeout: float = 5.0,
    recv_timeout: float = 30.0,
) -> int:
    """Serve leases from *broker* (``host:port``) until it goes away.

    Returns the number of jobs attempted. ``max_jobs`` bounds the
    worker's lifetime (tests); ``chaos_sleep`` stretches every job for
    deterministic chaos windows.
    """
    host, port = parse_address(broker)
    sock = socket.create_connection((host, port), timeout=connect_timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    chan = LineChannel(sock)
    slot = JobSlot(functools.partial(_run_job, chaos_sleep=chaos_sleep))
    wid = worker_id or f"w{os.getpid()}"
    jobs = 0
    try:
        chan.send({
            "type": "hello", "role": "worker", "worker": wid,
            "pid": os.getpid(), "version": PROTOCOL_VERSION,
        })
        while max_jobs is None or jobs < max_jobs:
            chan.send({"type": "request", "poll": 2.0})
            try:
                msg = chan.recv(timeout=recv_timeout)
            except TimeoutError:
                continue
            if msg is None or msg.get("type") == "shutdown":
                break
            if msg.get("type") == "idle":
                time.sleep(float(msg.get("delay", 0.2)))
                continue
            if msg.get("type") != "lease":
                continue
            jobs += 1
            chan.send(_run_lease(chan, slot, msg))
        try:
            chan.send({"type": "bye"})
        except OSError:
            pass
    except OSError:
        pass  # broker went away: an orderly end of a worker's life
    finally:
        slot.close()
        chan.close()
    return jobs
