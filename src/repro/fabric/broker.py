"""The fabric broker: leases, heartbeats, and a shared result store.

The broker is the only stateful service in the fabric, and its state is
deliberately reconstructible: finished results live in the
content-addressed :class:`~repro.fabric.store.ResultStore`, so a broker
that is killed and restarted over the same cache directory answers
previously computed sweeps entirely from the store — re-running a
sweep resumes it across broker restarts for free. The append-only
journal (``journal.jsonl``) is a diagnostic log of lifecycle events;
nothing reads it back to decide what runs.

Scheduling model
----------------
Work arrives as *sweep* requests: a list of (index, config-key, config)
jobs. Jobs are deduplicated fleet-wide by key — two clients submitting
the same config attach to the same job and both receive its single
result. Workers long-poll for work; each assignment is a **lease**:
job + lease id + heartbeat interval. A lease stays alive only while
heartbeats arrive; the reaper task expires silent leases
(``lease_ttl``) and requeues their jobs, so a SIGKILLed worker costs
one lease reassignment, never a lost sweep point.

Failure taxonomy (the executor's ``FailedRun`` kinds):

* worker-reported, straight from the worker's job slot (the same
  :class:`~repro.scenario.slot.JobSlot` the local pool runs):
  ``exception`` (the job raised), ``timeout`` (the slot killed its job
  child at the job timeout), ``worker_lost`` (the job's child process
  died without reporting; the error names its exit code) — these
  consume the job's retry budget (``max_retries``).
* broker-observed: ``lease_expired`` (heartbeats stopped),
  ``connection_reset`` (the worker's socket died mid-lease) — these
  consume the separate *death budget*, so a config that keeps killing
  its workers is eventually quarantined as a ``FailedRun`` instead of
  assassinating the fleet one worker at a time.

Degradation ladder (client-visible): cached answers need no workers at
all; with workers, lost ones are reassigned; with **no** workers for
``no_worker_grace`` seconds, unresolved indexes are returned to the
client as *fleet-exhausted* so the executor can run them on its local
pool — a sweep through the fabric can stall, degrade, or fall back,
but never silently lose points.

An HTTP shim rides on the same port: ``POST /sweep`` with scenario
JSON streams NDJSON progress/point/done lines (each point's
``metrics`` holds the summary's ``HEADLINE_FIELDS``), ``GET /healthz``
reports the fleet counters — this is the ``repro serve`` surface for
non-Python clients.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.errors import ConfigurationError
from ..stats.metrics import HEADLINE_FIELDS, MetricsSummary
from .protocol import (
    MAX_FRAME_BYTES,
    FabricProtocolError,
    decode_frame,
    encode_frame,
)
from .store import ResultStore

__all__ = ["Broker", "BrokerThread"]

#: Counter names surfaced in manifests and gated by
#: scripts/check_bench_regression.py --manifest.
_COUNTER_NAMES = (
    "leases_issued",
    "leases_reassigned",
    "heartbeats_missed",
    "results_from_peer_cache",
    "jobs_executed",
    "jobs_failed",
)


class _Lease:
    __slots__ = ("lease_id", "key", "worker", "issued", "last_heartbeat", "stale")

    def __init__(self, lease_id: int, key: str, worker: str, now: float):
        self.lease_id = lease_id
        self.key = key
        self.worker = worker
        self.issued = now
        self.last_heartbeat = now
        self.stale = False


class _FabricJob:
    __slots__ = (
        "key", "config", "state", "lease_id", "attempts", "deaths",
        "max_retries", "job_timeout", "last_kind", "last_error", "waiters",
    )

    def __init__(
        self,
        key: str,
        config: dict,
        max_retries: int,
        job_timeout: Optional[float] = None,
    ):
        self.key = key
        self.config = config
        #: Wall-clock budget the worker enforces on the job child
        #: (per-sweep client override, else the broker default).
        self.job_timeout = job_timeout
        self.state = "pending"  # pending | leased | done | failed
        self.lease_id: Optional[int] = None
        #: Worker-reported failures (exception/timeout/worker_lost).
        self.attempts = 0
        #: Broker-observed losses (lease_expired/connection_reset).
        self.deaths = 0
        self.max_retries = max_retries
        self.last_kind = "exception"
        self.last_error = ""
        #: (event queue, client-side index) pairs awaiting this job.
        self.waiters: List[Tuple[asyncio.Queue, int]] = []


class Broker:
    """Asyncio lease broker over one shared result store.

    Parameters
    ----------
    host / port:
        Bind address; port 0 picks a free port (read ``self.port``
        after :meth:`start`).
    cache_dir:
        Result-store + journal root (default ``.manetsim-cache``);
        point a fleet and any local executors at the same directory to
        share results.
    lease_ttl:
        Seconds a lease survives without a heartbeat before the reaper
        reassigns its job.
    heartbeat_interval:
        Interval workers are told to heartbeat at; a lease is counted
        as a missed heartbeat once it is 2× this interval silent.
    max_retries:
        Default worker-reported-failure budget per job (clients can
        override per sweep).
    death_budget:
        How many broker-observed worker losses one job may cause before
        it is quarantined as failed.
    job_timeout:
        Default per-job wall-clock timeout enforced *by workers* on
        their job children (clients can override per sweep).
    no_worker_grace:
        Seconds a sweep may sit with zero connected workers before its
        unresolved points are handed back for local fallback.
    drop_client_after_points:
        Chaos affordance for tests: sever each client connection after
        streaming this many point frames (named failure point
        ``after-point`` in the chaos suite). ``None`` disables.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: Optional[str] = None,
        lease_ttl: float = 10.0,
        heartbeat_interval: float = 0.5,
        max_retries: int = 2,
        death_budget: int = 2,
        job_timeout: Optional[float] = None,
        no_worker_grace: float = 5.0,
        drop_client_after_points: Optional[int] = None,
    ):
        self.host = host
        self.port = port
        self.cache_root = Path(cache_dir or ".manetsim-cache")
        self.store = ResultStore(self.cache_root)
        self.lease_ttl = lease_ttl
        self.heartbeat_interval = heartbeat_interval
        self.max_retries = max_retries
        self.death_budget = death_budget
        self.job_timeout = job_timeout
        self.no_worker_grace = no_worker_grace
        self.drop_client_after_points = drop_client_after_points

        self.jobs: Dict[str, _FabricJob] = {}
        self.pending: deque = deque()
        self.leases: Dict[int, _Lease] = {}
        self._lease_seq = itertools.count(1)
        #: worker id -> connect time (monotonic) for connected workers.
        self.workers: Dict[str, float] = {}
        #: worker id -> {"jobs": n, "busy_s": s} across the broker's life.
        self.per_worker: Dict[str, Dict[str, float]] = {}
        self.counters: Dict[str, int] = {n: 0 for n in _COUNTER_NAMES}
        self._last_worker_seen = time.monotonic()
        self._server: Optional[asyncio.AbstractServer] = None
        self._reaper: Optional[asyncio.Task] = None
        self._conn_tasks: set = set()

    # ------------------------------------------------------------ lifecycle

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def journal_path(self) -> Path:
        return self.cache_root / "journal.jsonl"

    def _journal(self, entry: dict) -> None:
        """Append one lifecycle record (diagnostic only: nothing reads
        it back to decide what runs)."""
        try:
            self.journal_path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.journal_path, "a") as fh:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
                fh.flush()
        except OSError:
            pass

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_FRAME_BYTES + 2,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._reaper = asyncio.create_task(self._reap_loop())
        self._journal({"fabric": "broker-start", "address": self.address})

    async def stop(self) -> None:
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except (asyncio.CancelledError, Exception):
                pass
            self._reaper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Connection handlers (idle worker long-polls, client streams)
        # survive server close; cancel them so the loop shuts down clean.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            self._conn_tasks.clear()

    async def serve_forever(self) -> None:
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------- dispatch

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._handle_connection_inner(reader, writer)
        except asyncio.CancelledError:
            pass  # broker shutdown cancels live connections; not an error
        finally:
            if task is not None:
                self._conn_tasks.discard(task)

    async def _handle_connection_inner(self, reader, writer) -> None:
        try:
            first = await reader.readline()
        except (OSError, ValueError):
            writer.close()
            return
        if not first:
            writer.close()
            return
        try:
            if first.split(None, 1)[:1] in ([b"POST"], [b"GET"]):
                await self._handle_http(first, reader, writer)
                return
            hello = decode_frame(first)
            if hello.get("type") == "sweep":
                await self._handle_client(reader, writer, hello)
            elif hello.get("role") == "worker":
                await self._handle_worker(reader, writer, hello)
            elif hello.get("role") == "client":
                await self._handle_client(reader, writer, None)
            else:
                raise FabricProtocolError(f"unknown hello: {hello!r}")
        except (
            OSError, ValueError, asyncio.IncompleteReadError,
            FabricProtocolError, ConnectionResetError,
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, RuntimeError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _send(writer, msg: dict) -> None:
        writer.write(encode_frame(msg))
        await writer.drain()

    # -------------------------------------------------------------- workers

    async def _handle_worker(self, reader, writer, hello: dict) -> None:
        wid = str(hello.get("worker") or f"worker-{id(writer):x}")
        now = time.monotonic()
        self.workers[wid] = now
        self._last_worker_seen = now
        self.per_worker.setdefault(wid, {"jobs": 0, "busy_s": 0.0})
        self._journal({"fabric": "worker-hello", "worker": wid})
        held: set = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                msg = decode_frame(line)
                mtype = msg.get("type")
                self._last_worker_seen = time.monotonic()
                if mtype == "request":
                    granted = await self._next_lease(
                        wid, float(msg.get("poll", 2.0))
                    )
                    if granted is None:
                        await self._send(writer, {"type": "idle", "delay": 0.2})
                    else:
                        lease, job = granted
                        held.add(lease.lease_id)
                        await self._send(writer, {
                            "type": "lease",
                            "lease": lease.lease_id,
                            "key": job.key,
                            "config": job.config,
                            "heartbeat_interval": self.heartbeat_interval,
                            "job_timeout": job.job_timeout,
                        })
                elif mtype == "heartbeat":
                    lease = self.leases.get(msg.get("lease"))
                    if lease is not None:
                        lease.last_heartbeat = time.monotonic()
                        lease.stale = False
                elif mtype == "result":
                    held.discard(msg.get("lease"))
                    self._handle_result(msg, wid)
                elif mtype == "bye":
                    break
        finally:
            self.workers.pop(wid, None)
            self._journal({"fabric": "worker-gone", "worker": wid})
            for lease_id in list(held):
                lease = self.leases.pop(lease_id, None)
                if lease is not None:
                    self._requeue_lost(lease, "connection_reset")

    async def _next_lease(
        self, wid: str, poll: float
    ) -> Optional[Tuple[_Lease, _FabricJob]]:
        """Long-poll the pending queue for up to *poll* seconds."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + min(poll, 30.0)
        while True:
            while self.pending:
                key = self.pending.popleft()
                job = self.jobs.get(key)
                if job is None or job.state != "pending":
                    continue
                now = time.monotonic()
                lease = _Lease(next(self._lease_seq), key, wid, now)
                self.leases[lease.lease_id] = lease
                job.state = "leased"
                job.lease_id = lease.lease_id
                self.counters["leases_issued"] += 1
                self._journal({
                    "fabric": "lease", "job": key, "worker": wid,
                    "lease": lease.lease_id,
                })
                return lease, job
            if loop.time() >= deadline:
                return None
            await asyncio.sleep(0.05)

    def _handle_result(self, msg: dict, wid: str) -> None:
        lease = self.leases.pop(msg.get("lease"), None)
        key = msg.get("key") or (lease.key if lease is not None else None)
        if key is None:
            return
        job = self.jobs.get(key)
        if lease is not None:
            stats = self.per_worker.setdefault(wid, {"jobs": 0, "busy_s": 0.0})
            stats["jobs"] += 1
            stats["busy_s"] += time.monotonic() - lease.issued
        summary = None
        if msg.get("ok"):
            try:
                summary = MetricsSummary.from_dict(msg.get("summary"))
            except ConfigurationError as exc:
                # The job failed: dropping the frame would strand it as
                # "leased" with no lease left for the reaper to expire.
                msg = {"kind": "exception", "error": f"undecodable result: {exc}"}
        if summary is not None:
            # A result is a result even when its lease expired and the
            # job was reassigned: publish it, and complete the job if
            # the replacement has not beaten it to the finish line.
            flight = summary.flight
            if isinstance(flight, dict) and flight.get("events"):
                # Park the (possibly large) causal trace beside the
                # result instead of inside the stored summary, so
                # cached sweep answers stay small; `repro obs trace`
                # can fetch it from the store by key.
                from ..obs.flight import flight_jsonl_str

                self.store.put_trace(key, flight_jsonl_str(flight))
                summary.flight = {
                    k: v for k, v in flight.items() if k != "events"
                }
            self.store.put(key, summary)
            if job is not None and job.state != "done":
                job.state = "done"
                self.counters["jobs_executed"] += 1
                self._journal({"key": key, "status": "ok", "worker": wid})
                self._notify(job, {
                    "type": "point", "cached": False, "summary": msg["summary"],
                })
        else:
            # Penalize only the job's *current* lease — a straggler
            # failing after reassignment must not double-bill the job.
            if (
                job is not None
                and job.state == "leased"
                and lease is not None
                and job.lease_id == lease.lease_id
            ):
                job.attempts += 1
                job.last_kind = str(msg.get("kind", "exception"))
                job.last_error = str(msg.get("error", ""))[:500]
                if job.attempts > job.max_retries:
                    self._fail_job(job)
                else:
                    job.state = "pending"
                    job.lease_id = None
                    self.pending.append(key)

    # --------------------------------------------------------------- reaper

    async def _reap_loop(self) -> None:
        tick = max(min(self.heartbeat_interval, self.lease_ttl) / 2.0, 0.05)
        while True:
            await asyncio.sleep(tick)
            now = time.monotonic()
            for lease_id, lease in list(self.leases.items()):
                age = now - lease.last_heartbeat
                if age > 2.0 * self.heartbeat_interval and not lease.stale:
                    lease.stale = True
                    self.counters["heartbeats_missed"] += 1
                    self._journal({
                        "fabric": "heartbeat-missed", "job": lease.key,
                        "worker": lease.worker, "lease": lease_id,
                    })
                if age > self.lease_ttl:
                    del self.leases[lease_id]
                    self._requeue_lost(lease, "lease_expired")

    def _requeue_lost(self, lease: _Lease, kind: str) -> None:
        """A lease died (expired heartbeats or reset connection)."""
        job = self.jobs.get(lease.key)
        if job is None or job.state != "leased" or job.lease_id != lease.lease_id:
            return
        job.deaths += 1
        job.lease_id = None
        self.counters["leases_reassigned"] += 1
        self._journal({
            "fabric": "reassign", "job": lease.key, "worker": lease.worker,
            "kind": kind, "deaths": job.deaths,
        })
        if job.deaths > self.death_budget:
            job.last_kind = kind
            job.last_error = (
                f"job lost {job.deaths} worker(s) (last: {kind} on "
                f"{lease.worker}); quarantined"
            )
            self._fail_job(job)
        else:
            job.state = "pending"
            self.pending.append(lease.key)

    def _fail_job(self, job: _FabricJob) -> None:
        job.state = "failed"
        self.counters["jobs_failed"] += 1
        self._journal({
            "key": job.key, "status": "failed", "kind": job.last_kind,
            "error": job.last_error, "attempts": job.attempts + job.deaths,
        })
        self._notify(job, {
            "type": "point_failed", "kind": job.last_kind,
            "error": job.last_error, "attempts": job.attempts + job.deaths,
        })

    def _notify(self, job: _FabricJob, payload: dict) -> None:
        for queue, index in job.waiters:
            queue.put_nowait(dict(payload, index=index))
        job.waiters.clear()

    # -------------------------------------------------------------- clients

    def _register_jobs(
        self, specs: List[dict], opts, queue: asyncio.Queue
    ) -> Tuple[List[dict], Dict[int, str]]:
        """Resolve cached specs immediately; enqueue the rest.

        Returns (immediate point messages, unresolved index → key).
        """
        immediate: List[dict] = []
        unresolved: Dict[int, str] = {}
        max_retries, job_timeout = _sweep_options(opts)
        if max_retries is None:
            max_retries = self.max_retries
        if job_timeout is None:
            job_timeout = self.job_timeout
        for spec in specs:
            key = str(spec["key"])
            index = int(spec["index"])
            cached = self.store.get(key)
            if cached is not None:
                self.counters["results_from_peer_cache"] += 1
                immediate.append({
                    "type": "point", "index": index, "cached": True,
                    "summary": cached.to_dict(),
                })
                continue
            job = self.jobs.get(key)
            # done-but-store-miss (healed entry) and previously failed
            # jobs both restart from scratch: a new client asking again
            # is a fresh chance, not an instant replay of old bad luck.
            if job is None or job.state in ("done", "failed"):
                job = _FabricJob(
                    key, spec.get("config") or {}, max_retries, job_timeout,
                )
                self.jobs[key] = job
                self.pending.append(key)
            job.waiters.append((queue, index))
            unresolved[index] = key
        return immediate, unresolved

    def _detach(self, queue: asyncio.Queue, keys: List[str]) -> None:
        for key in keys:
            job = self.jobs.get(key)
            if job is not None:
                job.waiters = [w for w in job.waiters if w[0] is not queue]

    def _fleet_counters(self) -> dict:
        counters = dict(self.counters)
        counters["workers_connected"] = len(self.workers)
        counters["workers_seen"] = len(self.per_worker)
        counters["per_worker"] = {
            w: dict(s) for w, s in sorted(self.per_worker.items())
        }
        return counters

    def _prometheus_metrics(self) -> str:
        """Prometheus text exposition (0.0.4) of the fleet's state.

        The ``/healthz`` counters plus live gauges (lease, queue and
        worker occupancy) under the ``manetsim_fabric_`` prefix;
        per-worker totals carry a ``worker`` label.
        """
        lines: List[str] = []
        for name in _COUNTER_NAMES:
            metric = f"manetsim_fabric_{name}_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {self.counters[name]}")
        gauges = {
            "workers_connected": len(self.workers),
            "workers_seen": len(self.per_worker),
            "leases_active": len(self.leases),
            "leases_stale": sum(1 for l in self.leases.values() if l.stale),
            "jobs_pending": len(self.pending),
            "jobs_known": len(self.jobs),
        }
        for name, value in gauges.items():
            metric = f"manetsim_fabric_{name}"
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {value}")
        lines.append("# TYPE manetsim_fabric_worker_jobs counter")
        lines.append("# TYPE manetsim_fabric_worker_busy_seconds counter")
        for wid, stats in sorted(self.per_worker.items()):
            esc = wid.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(
                f'manetsim_fabric_worker_jobs{{worker="{esc}"}} '
                f'{int(stats["jobs"])}'
            )
            lines.append(
                f'manetsim_fabric_worker_busy_seconds{{worker="{esc}"}} '
                f'{stats["busy_s"]:.6f}'
            )
        return "\n".join(lines) + "\n"

    async def _handle_client(self, reader, writer, sweep: Optional[dict]) -> None:
        if sweep is None:
            line = await reader.readline()
            if not line:
                return
            sweep = decode_frame(line)
        if sweep.get("type") != "sweep":
            raise FabricProtocolError(f"expected sweep, got {sweep.get('type')!r}")

        async def emit(msg: dict) -> None:
            await self._send(writer, msg)

        await self._run_sweep_stream(sweep, emit)

    async def _run_sweep_stream(self, sweep: dict, emit) -> None:
        """Shared sweep loop for native and HTTP clients.

        *emit* is an async callable receiving each outbound message;
        it may raise to abort (client went away).
        """
        specs = list(sweep.get("jobs") or [])
        opts = sweep.get("options")
        queue: asyncio.Queue = asyncio.Queue()
        total = len(specs)
        immediate, unresolved = self._register_jobs(specs, opts, queue)
        done = 0
        points_sent = 0
        try:
            for msg in immediate:
                await emit(msg)
                done += 1
                points_sent += 1
                if self._chaos_drop(points_sent):
                    return
            while unresolved:
                try:
                    item = await asyncio.wait_for(queue.get(), timeout=1.0)
                except asyncio.TimeoutError:
                    await emit({
                        "type": "progress", "done": done, "total": total,
                        "workers": len(self.workers),
                    })
                    # Fleet exhausted: no workers connected and none
                    # seen for the grace window -> hand the remainder
                    # back for local execution instead of stalling.
                    if (
                        not self.workers
                        and time.monotonic() - self._last_worker_seen
                        > self.no_worker_grace
                    ):
                        await emit({
                            "type": "fleet-exhausted",
                            "indexes": sorted(unresolved),
                        })
                        break
                    continue
                unresolved.pop(item["index"], None)
                await emit(item)
                done += 1
                points_sent += 1
                if self._chaos_drop(points_sent):
                    return
            await emit({
                "type": "done", "done": done, "total": total,
                "counters": self._fleet_counters(),
            })
        finally:
            self._detach(queue, list(unresolved.values()))

    def _chaos_drop(self, points_sent: int) -> bool:
        """Test affordance: True when the connection should be severed
        at the named failure point ``after-point``."""
        return (
            self.drop_client_after_points is not None
            and points_sent >= self.drop_client_after_points
        )

    # ------------------------------------------------------------ HTTP shim

    async def _handle_http(self, first: bytes, reader, writer) -> None:
        """Minimal HTTP/1.0-style surface for ``repro serve``.

        ``POST /sweep`` with scenario JSON streams NDJSON progress /
        point / done lines (headline metrics as plain JSON — cached
        sweeps are answered without touching a worker); ``GET /healthz``
        reports fleet counters.
        """
        try:
            method, path, _ = first.decode("latin-1").split(None, 2)
        except ValueError:
            return
        length = 0
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    length = 0
        if method == "GET" and path.startswith("/healthz"):
            body = json.dumps(self._fleet_counters(), sort_keys=True) + "\n"
            writer.write(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"Connection: close\r\n\r\n" + body.encode()
            )
            await writer.drain()
            return
        if method == "GET" and path.startswith("/metrics"):
            body = self._prometheus_metrics()
            writer.write(
                b"HTTP/1.1 200 OK\r\nContent-Type: text/plain; "
                b"version=0.0.4; charset=utf-8\r\nConnection: close\r\n\r\n"
                + body.encode()
            )
            await writer.drain()
            return
        if method != "POST" or not path.startswith("/sweep"):
            writer.write(b"HTTP/1.1 404 Not Found\r\nConnection: close\r\n\r\n")
            await writer.drain()
            return
        if length <= 0 or length > MAX_FRAME_BYTES:
            writer.write(b"HTTP/1.1 400 Bad Request\r\nConnection: close\r\n\r\n")
            await writer.drain()
            return
        try:
            body = json.loads(await reader.readexactly(length))
            specs, opts = _http_sweep_specs(body)
        except Exception as exc:
            msg = json.dumps({"error": str(exc)}) + "\n"
            writer.write(
                b"HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
                b"Connection: close\r\n\r\n" + msg.encode()
            )
            await writer.drain()
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )

        async def emit(msg: dict) -> None:
            if msg.get("type") == "point":
                msg = dict(msg)
                summary = msg.pop("summary")
                msg["metrics"] = {f: summary.get(f) for f in HEADLINE_FIELDS}
            writer.write((json.dumps(msg, sort_keys=True) + "\n").encode())
            await writer.drain()

        await self._run_sweep_stream(
            {"type": "sweep", "jobs": specs, "options": opts}, emit
        )


def _http_sweep_specs(body: dict) -> Tuple[List[dict], dict]:
    """Scenario JSON → fabric job specs (keys computed broker-side)."""
    from ..scenario.executor import config_cache_key
    from ..scenario.io import config_from_dict, config_to_dict

    if not isinstance(body, dict):
        raise ValueError("request body must be a JSON object")
    if "configs" in body:
        dicts = list(body["configs"])
    elif "config" in body:
        dicts = [body["config"]]
    else:
        raise ValueError("body needs 'config' or 'configs'")
    specs = []
    for i, d in enumerate(dicts):
        cfg = config_from_dict(d)  # validates + normalizes
        specs.append({
            "index": i,
            "key": config_cache_key(cfg),
            "config": config_to_dict(cfg),
        })
    _sweep_options(body.get("options"))
    return specs, body.get("options")


def _sweep_options(opts) -> Tuple[Optional[int], Optional[float]]:
    """``(max_retries, job_timeout)`` of a sweep's ``options``: each null
    (the broker's default), an int >= 0 and a finite number > 0; a worker
    leasing the job reads them unguarded, so anything else is refused."""
    opts = {} if opts is None else opts
    if not isinstance(opts, dict):
        raise FabricProtocolError("options must be a JSON object")
    retries, timeout = opts.get("max_retries"), opts.get("job_timeout")
    if retries is not None and (type(retries) is not int or retries < 0):
        raise FabricProtocolError(f"max_retries must be an int >= 0: {retries!r:.40}")
    if timeout is not None and not (
        type(timeout) in (int, float) and math.isfinite(timeout) and timeout > 0
    ):
        raise FabricProtocolError(f"job_timeout must be finite and > 0: {timeout!r:.40}")
    return retries, timeout


class BrokerThread:
    """Run a :class:`Broker` on a background thread (tests, embedding).

    ``with BrokerThread(cache_dir=...) as broker:`` yields the started
    broker; ``broker.address`` is the dial string.
    """

    def __init__(self, **broker_kwargs):
        self.broker = Broker(**broker_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = None

    def start(self) -> Broker:
        import threading

        started = threading.Event()
        self._loop = asyncio.new_event_loop()

        def _run() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self.broker.start())
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=_run, name="fabric-broker", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=10.0):
            raise RuntimeError("broker failed to start within 10s")
        return self.broker

    def stop(self) -> None:
        loop, self._loop = self._loop, None
        if loop is None:
            return

        async def _shutdown() -> None:
            await self.broker.stop()
            loop.stop()

        asyncio.run_coroutine_threadsafe(_shutdown(), loop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        loop.close()

    def __enter__(self) -> Broker:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
