"""The fabric worker: leased execution with a sacrificial job child.

A worker is a plain synchronous process (the broker is the only
asyncio piece of the fabric): it dials the broker, long-polls for
leases, and runs each leased sweep point in a **forked child process**
— the same crash-isolation discipline the local pool uses. The child
can segfault, OOM, or hang without taking the worker down:

* job raises → typed ``exception`` failure report;
* job exceeds the lease's ``job_timeout`` → child is SIGKILLed and a
  ``timeout`` failure is reported (the existing per-job timeout
  machinery, enforced fleet-side);
* child dies without reporting → ``worker_lost`` failure report;
* the *worker itself* is SIGKILLed → heartbeats stop and the broker's
  reaper reassigns the lease (``lease_expired``), which is exactly the
  chaos scenario the fabric tests pin.

While the child runs, the worker's main loop does nothing but poll the
result pipe and send heartbeats — it is always responsive, so a live
worker never loses a lease to heartbeat starvation no matter how hot
the simulation loop is.

``chaos_sleep`` is a fault-injection affordance (the fabric analogue of
:mod:`repro.faults`): it stretches every job by a fixed pre-sleep so
chaos tests get a deterministic mid-lease window to SIGKILL into,
without perturbing the simulation result.
"""

from __future__ import annotations

import contextlib
import os
import socket
import time
from typing import Optional

from .protocol import LineChannel, PROTOCOL_VERSION, parse_address

__all__ = ["run_worker"]


def _run_job(config_dict: dict) -> dict:
    """Run one sweep point; its summary as a JSON-ready dict."""
    from ..scenario.io import config_from_dict
    from ..scenario.run import run_scenario

    return run_scenario(config_from_dict(config_dict)).to_dict()


def _job_child(config_dict: dict, chaos_sleep: float, conn) -> None:
    """Run one sweep point and report through the pipe; never raises."""
    try:
        if chaos_sleep > 0.0:
            time.sleep(chaos_sleep)
        conn.send(("ok", _run_job(config_dict)))
    except BaseException as exc:  # noqa: BLE001 - typed report, then exit
        with contextlib.suppress(OSError, ValueError):
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        with contextlib.suppress(OSError):
            conn.close()


def _run_lease(chan: LineChannel, lease_msg: dict, chaos_sleep: float) -> dict:
    """Execute one lease; returns the result frame to send."""
    lease_id = lease_msg["lease"]
    key = lease_msg.get("key")
    config_dict = lease_msg.get("config") or {}
    hb_interval = float(lease_msg.get("heartbeat_interval") or 0.5)
    job_timeout = lease_msg.get("job_timeout")

    def report(ok: bool, **extra) -> dict:
        return {"type": "result", "lease": lease_id, "key": key,
                "ok": ok, **extra}

    if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX fallback
        # No child isolation available: run inline (no preemption),
        # exactly like the executor's inline mode.
        try:
            return report(True, summary=_run_job(config_dict))
        except Exception as exc:  # noqa: BLE001
            return report(False, kind="exception",
                          error=f"{type(exc).__name__}: {exc}")

    import multiprocessing as mp

    ctx = mp.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_job_child, args=(config_dict, chaos_sleep, child_conn)
    )
    proc.start()
    child_conn.close()
    deadline = (
        time.monotonic() + float(job_timeout)
        if job_timeout is not None and float(job_timeout) > 0
        else None
    )
    payload = None
    try:
        while True:
            ready = parent_conn.poll(hb_interval)
            if not ready:
                # Heartbeat between polls; a dead broker socket aborts
                # the lease (the broker will reassign it anyway).
                chan.send({"type": "heartbeat", "lease": lease_id})
                if deadline is not None and time.monotonic() > deadline:
                    proc.kill()
                    proc.join(5.0)
                    return report(
                        False, kind="timeout",
                        error=f"exceeded job timeout of {job_timeout}s",
                    )
                if proc.is_alive():
                    continue
                # Child exited; drain any message that raced the exit.
                ready = parent_conn.poll(0.1)
            if ready:
                with contextlib.suppress(EOFError, OSError):
                    payload = parent_conn.recv()
            break
    finally:
        proc.join(5.0)
        parent_conn.close()

    if payload is None:
        return report(
            False, kind="worker_lost",
            error=f"job process died without a result "
                  f"(exit code {proc.exitcode})",
        )
    status, body = payload
    if status == "ok":
        return report(True, summary=body)
    return report(False, kind="exception", error=str(body))


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
            chan.send(_run_lease(chan, msg, chaos_sleep))
        try:
            chan.send({"type": "bye"})
        except OSError:
            pass
    except OSError:
        pass  # broker went away: an orderly end of a worker's life
    finally:
        chan.close()
    return jobs
