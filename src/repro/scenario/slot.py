"""One killable job child: the process boundary every sweep point crosses.

A :class:`JobSlot` owns a long-lived child process (forked where
``fork`` exists, spawned otherwise) that runs one job at a time over a
pipe; the local pool (:class:`~repro.scenario.executor.SweepExecutor`)
drives ``processes`` slots, a fleet worker
(:func:`~repro.fabric.worker.run_worker`) one. Every job ends in one
``(kind, body)`` outcome: ``ok`` (the result), ``exception`` (the job
raised), ``worker_lost`` (the child died unanswered; "exit code N") or
``timeout`` (the slot killed the child at the deadline). A lost child
is reaped at once and the next job forks anew, so a death is charged
to exactly the job that caused it.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import signal
import stat
import time
from multiprocessing.connection import wait
from typing import Callable, Iterable, List, Optional, Tuple

__all__ = ["JobSlot", "wait_any"]


def _drop_inherited_sockets(keep: int) -> None:
    """Point every socket the fork copied here, bar *keep*, at /dev/null:
    the child must not hold the parent's connections open (a broker's, a
    client's, another slot's pipe); the numbers stay taken, so a stale
    object closing one later is harmless."""
    try:
        fds = [int(name) for name in os.listdir("/dev/fd")]
    except OSError:
        return  # no descriptor listing here (not POSIX): nothing forked
    null = os.open(os.devnull, os.O_RDWR)
    for fd in fds:
        with contextlib.suppress(OSError):
            if fd > 2 and fd != keep and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(null, fd)
    os.close(null)


def _serve(fn: Callable, conn) -> None:
    """Child loop: answer each job from *conn* until the parent hangs up."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent owns Ctrl-C
    _drop_inherited_sockets(conn.fileno())
    while True:
        try:
            arg = conn.recv()
        except EOFError:
            return
        try:
            outcome = ("ok", fn(arg))
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            outcome = ("exception", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(outcome)
        except OSError:
            return


class JobSlot:
    """A child process that runs ``fn(arg)`` for one *arg* at a time
    (*fn* must be importable by name where children are spawned)."""

    def __init__(self, fn: Callable):
        self._fn = fn
        self._proc = None
        self._conn = None
        self._deadline: Optional[float] = None
        self._timeout: Optional[float] = None

    def start(self, arg, timeout: Optional[float] = None) -> None:
        """Hand *arg* to the child, forking one first if there is none;
        :meth:`outcome` holds the job to *timeout* seconds."""
        if self._proc is not None and not self._proc.is_alive():
            self.close()  # killed while idle: fork a replacement
        if self._proc is None:
            ctx = mp.get_context("fork" if hasattr(os, "fork") else "spawn")
            self._conn, child = ctx.Pipe()
            self._proc = ctx.Process(target=_serve, args=(self._fn, child), daemon=True)
            self._proc.start()
            child.close()
        self._timeout = timeout
        self._deadline = None if timeout is None else time.monotonic() + timeout
        self._conn.send(arg)

    def outcome(self) -> Optional[Tuple[str, object]]:
        """The running job's outcome once it has one, else ``None``."""
        if self._conn.poll():
            try:
                return self._conn.recv()
            except (EOFError, OSError):
                pass  # the child died mid-answer
        elif self._proc.is_alive():
            if self._deadline is None or time.monotonic() < self._deadline:
                return None
            self.close()
            return ("timeout", f"exceeded job timeout of {self._timeout}s")
        self._proc.join(5.0)  # gone, or going: its exit code names the death
        code = self._proc.exitcode
        self.close()
        return ("worker_lost",
                f"job process died without a result (exit code {code})")

    def close(self) -> None:
        """Kill and reap the child (idempotent); the next job forks anew."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        self._conn.close()
        if proc.is_alive():
            proc.kill()
        proc.join(5.0)


def wait_any(slots: Iterable[JobSlot], timeout: Optional[float] = None) -> List:
    """Block until a slot's child answers or dies, its job's deadline
    passes, or *timeout* seconds go by; returns what became ready."""
    slots = list(slots)
    deadlines = [s._deadline for s in slots if s._deadline is not None]
    if deadlines:
        until = min(deadlines) - time.monotonic()
        timeout = until if timeout is None else min(timeout, until)
    handles = [h for s in slots for h in (s._conn, s._proc.sentinel)]
    return wait(handles, None if timeout is None else max(timeout, 0.0))
