"""Resilient persistent sweep execution: job slots + content-addressed store.

Sweeps are embarrassingly parallel, but a production campaign has to
survive more than parallelism: a worker segfaulting, a pathological
config hanging forever, a kill -9 mid-sweep, a truncated cache file.
The :class:`SweepExecutor` runs each point alone in a killable child,
one of ``processes`` long-lived :class:`~repro.scenario.slot.JobSlot`
children (a fleet worker drives the same slot), so a child that dies
costs its own job alone, and layers three defences on it:

* **Typed failure records** — a run that cannot be completed yields a
  :class:`FailedRun` in its place instead of an escaping worker
  exception, so one bad point never discards a multi-hour sweep.
* **Per-job wall-clock timeout** — ``job_timeout`` (or
  ``MANETSIM_JOB_TIMEOUT``) bounds every dispatched job; the slot kills
  an expired job's child and forks a fresh one for the next job.
* **Bounded retry with exponential backoff** — every failure gets
  ``max_retries`` (``MANETSIM_JOB_RETRIES``) further attempts, delayed
  by ``retry_backoff * 2**attempt`` seconds.

The store is the checkpoint: every finished point is published under
its config's content hash the moment it completes, so re-running an
interrupted sweep executes exactly the points the store lacks
(re-running is resuming).

Observability: every run builds a manifest (see
:mod:`repro.obs.manifest`; written to ``<cache>/manifest.json`` when
caching is on) recording the sweep's content hash, toolchain versions,
resolved engine options, dispatch counts, per-job wall times, and the
failure taxonomy; ``run(..., progress=True)`` emits a single-line
in-place progress display (done/total, failures, jobs/s, ETA) in which
cached points count as already done — never as fresh completions — so
re-run sweeps report honest rates.

The disk cache is exact: a :class:`~repro.scenario.config.ScenarioConfig`
pins a simulation bit-for-bit (frozen primitives + deterministic
kernel), so the sha256 of its canonical JSON — salted with a cache
version — keys the stored :class:`~repro.stats.metrics.MetricsSummary`.
The cache *is* the fabric's content-addressed
:class:`~repro.fabric.store.ResultStore`: writes are atomic (uniquely
named tmp file + fsync + ``os.replace``) so concurrent writers — local
workers, fleet workers, other users sharing the directory — can never
publish a torn entry or collide, and reads treat a hash mismatch or
*any* deserialization failure as a miss (unlinking the damaged entry so
it is recomputed once, not tripped over forever).

Beyond the local pool, ``run(..., fabric="host:port")`` ships cache
misses to a :mod:`repro.fabric` broker fleet. Every fabric failure
mode — broker unreachable, connection lost mid-sweep, fleet exhausted,
workers dying mid-lease — degrades to the local pool with a warning
(or is absorbed fleet-side by lease reassignment); a fabric sweep can
be slower than planned, never lost.

Environment knobs
-----------------
``MANETSIM_PROCESSES``
    Worker count when the caller does not pass one.
``MANETSIM_NO_SWEEP_CACHE``
    Set to ``1`` to bypass the on-disk cache entirely.
``MANETSIM_JOB_TIMEOUT``
    Per-job wall-clock timeout in seconds (0 or unset = none).
``MANETSIM_JOB_RETRIES``
    Extra attempts per failed job (default 2).
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..fabric.store import ResultStore
from ..obs.manifest import ProgressLine, build_manifest, write_manifest
from ..stats.metrics import MetricsSummary
from .config import ScenarioConfig
from .options import EngineOptions, env_number
from .run import run_scenario
from .slot import JobSlot, wait_any

__all__ = [
    "FailedRun",
    "SweepExecutor",
    "config_cache_key",
    "default_executor",
]

#: Bump when kernel behaviour changes invalidate old cached summaries.
#: v2: fault-plan field entered the canonical config dict.
#: v3: observability fields (profile, telemetry_interval) entered the
#: canonical config dict.
#: v4: batched PHY arrival engine landed (bit-identical by design, but
#: cached summaries predating its A/B knob are no longer trustworthy
#: as evidence of that).
#: v5: DCF contention arena landed (shared timer wheel + batched
#: medium-edge resolution), same reasoning as v4.
#: v6: sharded engine + placement fields (placement/n_clusters/
#: cluster_gap) entered ScenarioConfig, and the metrics collector was
#: rebuilt around shard partials/streaming aggregation.
#: v7: flight-recorder fields (flight/flight_trace) entered the
#: canonical config dict and MetricsSummary grew drops_by_reason/
#: flight — pre-taxonomy pickles lack the per-reason breakdown.
#: v8, v9: fields entered, then left, the canonical config dict.
#: v10: the ideal MAC starts a transmission from a zero-delay event
#: instead of inside the delivery that asked for it; its summaries moved.
_CACHE_SALT = "manetsim-sweep-v10"

#: Default cache root, resolved against the working directory.
_CACHE_DIR = ".manetsim-cache"

#: Cap on any single retry-backoff delay (s).
_MAX_BACKOFF = 30.0


def config_cache_key(cfg: ScenarioConfig) -> str:
    """Stable content hash identifying *cfg*'s simulation output."""
    from .io import config_to_dict

    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(f"{_CACHE_SALT}:{canon}".encode()).hexdigest()


@dataclass
class FailedRun:
    """A sweep point that could not produce a summary.

    Returned in the result slot the :class:`MetricsSummary` would have
    occupied, so callers always get one entry per config and can tell
    exactly which points (and why) are missing.
    """

    index: int
    config: ScenarioConfig
    #: From the job slot, local or fleet: ``"exception"`` (the job
    #: raised), ``"timeout"`` (its child was killed at the deadline),
    #: ``"worker_lost"`` (its child died; the error names the exit
    #: code). Seen by the broker: ``"lease_expired"`` (heartbeats
    #: stopped; the job kept killing its workers past the death
    #: budget), ``"connection_reset"`` (worker sockets kept dying).
    kind: str
    error: str
    attempts: int

    @property
    def failed(self) -> bool:
        return True


@dataclass
class _Job:
    """Dispatch-side state of one pending sweep point."""

    index: int
    config: ScenarioConfig
    key: Optional[str]
    #: Failures of this job (exception, timeout, or its child's death).
    attempts: int = 0
    #: Monotonic time before which the job must not be resubmitted.
    not_before: float = 0.0
    last_error: str = ""
    last_kind: str = "exception"
    #: Monotonic time of the most recent dispatch (manifest wall times).
    last_start: float = 0.0


def _resolve_processes(processes: Optional[int]) -> int:
    if processes is None:
        processes = env_number(
            os.environ, "MANETSIM_PROCESSES", os.cpu_count() or 1, minimum=1
        )
    if processes < 1:
        raise ValueError(f"process count must be >= 1, got {processes}")
    return processes


def _resolve_timeout(job_timeout: Optional[float]) -> Optional[float]:
    if job_timeout is None:
        job_timeout = env_number(
            os.environ, "MANETSIM_JOB_TIMEOUT", None, float
        )
    if job_timeout is not None and job_timeout <= 0:
        return None
    return job_timeout


def _resolve_retries(max_retries: Optional[int]) -> int:
    if max_retries is None:
        max_retries = env_number(
            os.environ, "MANETSIM_JOB_RETRIES", 2, minimum=0
        )
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    return max_retries


class SweepExecutor:
    """Runs batches of scenario configs on persistent job slots.

    Parameters
    ----------
    processes:
        Worker count; ``None`` consults ``MANETSIM_PROCESSES`` then
        ``os.cpu_count()``. ``1`` executes inline in this process (no
        slot), which is still logged — never a silent fallback.
    cache_dir:
        Root of the on-disk result store; ``None`` uses
        ``.manetsim-cache`` in the working directory.
    use_cache:
        ``None`` enables the cache unless ``MANETSIM_NO_SWEEP_CACHE=1``.
    job_timeout:
        Wall-clock seconds allowed per dispatched job; ``None`` consults
        ``MANETSIM_JOB_TIMEOUT`` (unset/0 disables). Not enforced in
        inline (1-process) mode, which cannot preempt itself.
    max_retries:
        Extra attempts for a failed job before it becomes a
        :class:`FailedRun`; ``None`` consults ``MANETSIM_JOB_RETRIES``
        (default 2).
    retry_backoff:
        Base of the exponential retry delay (seconds).
    """

    def __init__(
        self,
        processes: Optional[int] = None,
        cache_dir: Optional[str] = None,
        use_cache: Optional[bool] = None,
        job_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        retry_backoff: float = 0.25,
    ):
        self.processes = _resolve_processes(processes)
        if use_cache is None:
            use_cache = os.environ.get("MANETSIM_NO_SWEEP_CACHE") != "1"
        self.use_cache = use_cache
        self._set_cache_dir(cache_dir)
        self.job_timeout = _resolve_timeout(job_timeout)
        self.max_retries = _resolve_retries(max_retries)
        self.retry_backoff = retry_backoff
        self._slots: List[JobSlot] = []
        #: Store hits / misses and failed points of the most recent
        #: :meth:`run`; everything else about it is in the manifest.
        self.last_cache_hits = 0
        self.last_cache_misses = 0
        self.last_failures: List[FailedRun] = []
        #: Slot children replaced after a death or a timeout.
        self.pool_restarts = 0
        #: The running sweep's per-job wall seconds (index -> s) and
        #: retry / timeout counts, on their way into the manifest.
        self._job_walls: Dict[int, float] = {}
        self._retries = 0
        self._timeouts = 0
        #: Manifest of the last run (written to disk when caching is on).
        self.last_manifest: Optional[dict] = None
        self.last_manifest_path: Optional[Path] = None
        self._progress: Optional[ProgressLine] = None
        #: Fabric dispatch record for the last run (None = no fabric).
        self.last_fabric: Optional[dict] = None

    # ------------------------------------------------------------ lifecycle

    def _set_cache_dir(self, cache_dir: Optional[str]) -> None:
        self._cache_root = Path(cache_dir or _CACHE_DIR)
        self._cache = ResultStore(self._cache_root)

    @property
    def manifest_path(self) -> Path:
        return self._cache_root / "manifest.json"

    def close(self) -> None:
        """Kill and reap every slot's child; the next dispatch forks anew."""
        for slot in self._slots:
            slot.close()
        self._slots = []

    # ------------------------------------------------------------ execution

    def run(
        self,
        configs: Sequence[ScenarioConfig],
        progress: bool = False,
        fabric: Optional[str] = None,
    ) -> List[Union[MetricsSummary, FailedRun]]:
        """Execute every config; results align with the input order.

        Each entry holds the run's :class:`MetricsSummary`, or a
        :class:`FailedRun` when the point exhausted its retries —
        worker exceptions never escape this method.

        With the cache on, points the store already holds are served
        from it and only the rest execute, so re-running an interrupted
        sweep is resuming it.

        With ``progress=True``, a single stderr line tracks
        done/total, failures, jobs/s and ETA; cached points seed the
        "done" count and are excluded from the rate, so a re-run
        sweep's ETA covers only remaining work.

        With ``fabric="host:port"``, cache-missing points are shipped
        to that broker's worker fleet; results the fleet (or its shared
        store) cannot provide — broker unreachable, connection lost
        mid-sweep, fleet exhausted — degrade to the local pool with a
        warning. A fabric sweep can be slower than planned, never lost.
        """
        n = len(configs)
        run_t0 = time.monotonic()
        restarts_before = self.pool_restarts
        self._job_walls = {}
        self._retries = 0
        self._timeouts = 0
        results: List[Optional[Union[MetricsSummary, FailedRun]]] = [None] * n
        keys: List[Optional[str]] = [None] * n
        hits = 0
        if self.use_cache:
            for i, cfg in enumerate(configs):
                key = config_cache_key(cfg)
                keys[i] = key
                cached = self._cache.get(key)
                if cached is not None:
                    results[i] = cached
                    hits += 1
        pending = [
            _Job(i, configs[i], keys[i]) for i in range(n) if results[i] is None
        ]
        misses = len(pending)
        self.last_cache_misses = misses
        self.last_failures = []

        self._progress = ProgressLine(n, already_done=hits) if progress else None
        self.last_fabric = None
        try:
            if misses:
                local = pending
                if fabric is not None:
                    # Fleet first; whatever comes back unresolved
                    # (everything when unreachable, the tail when the
                    # stream died) runs locally.
                    local = self._run_fabric(fabric, pending, results)
                # Inline only when serial execution was *requested*. A
                # one-job batch on a multi-process executor still goes
                # through a slot: a crashing or hanging job must take
                # a child down, never this process.
                if local and self.processes == 1:
                    self._run_inline(local, results)
                elif local:
                    self._run_pool(local, results)
        finally:
            if self._progress is not None:
                self._progress.finish()
                self._progress = None
        self.last_failures = [r for r in results if isinstance(r, FailedRun)]

        # Peer-cache answers are cache hits, not executions: keep the
        # manifest invariant jobs_total == jobs_executed + jobs_from_cache
        # honest under fabric dispatch.
        peer_hits = (self.last_fabric or {}).get("results_from_peer_cache", 0)
        self.last_cache_hits = hits + peer_hits

        manifest = build_manifest(
            job_keys=[k or "" for k in keys],
            jobs_executed=misses - peer_hits,
            jobs_from_cache=self.last_cache_hits,
            failures=[
                {
                    "index": f.index,
                    "kind": f.kind,
                    "attempts": f.attempts,
                    "error": f.error[:200],
                }
                for f in self.last_failures
            ],
            retries=self._retries,
            timeouts=self._timeouts,
            pool_restarts=self.pool_restarts - restarts_before,
            workers=min(self.processes, max(misses, 1)),
            wall_time_s=time.monotonic() - run_t0,
            job_wall_times_s=self._job_walls,
            cache_salt=_CACHE_SALT,
            engine_options=asdict(EngineOptions.from_env()),
            fabric=self.last_fabric,
        )
        self.last_manifest = manifest
        if self.use_cache:
            write_manifest(manifest, self.manifest_path)
            self.last_manifest_path = self.manifest_path
        else:
            self.last_manifest_path = None
        return results  # type: ignore[return-value]

    # ------------------------------------------------------- inline dispatch

    def _record_ok(self, job: _Job, summary) -> None:
        if job.last_start:
            self._job_walls[job.index] = time.monotonic() - job.last_start
        if self.use_cache and job.key is not None:
            self._cache.put(job.key, summary)
        if self._progress is not None:
            self._progress.update(ok=True)

    def _record_failed(self, job: _Job) -> FailedRun:
        failed = FailedRun(
            index=job.index,
            config=job.config,
            kind=job.last_kind,
            error=job.last_error,
            attempts=job.attempts,
        )
        if job.last_start:
            self._job_walls[job.index] = time.monotonic() - job.last_start
        if self._progress is not None:
            self._progress.update(ok=False)
        return failed

    def _run_inline(self, pending, results) -> None:
        """Serial execution (requested, not a fallback): same code path
        as the slots, minus the IPC — and minus preemption, so jobs
        get a single attempt and no timeout."""
        for job in pending:
            job.last_start = time.monotonic()
            try:
                summary = run_scenario(job.config)
            except Exception as exc:  # noqa: BLE001 - typed record below
                job.attempts += 1
                job.last_kind = "exception"
                job.last_error = f"{type(exc).__name__}: {exc}"
                results[job.index] = self._record_failed(job)
                continue
            results[job.index] = summary
            self._record_ok(job, summary)

    # ------------------------------------------------------- fabric dispatch

    def _run_fabric(
        self, address: str, pending: List["_Job"], results
    ) -> List["_Job"]:
        """Ship *pending* to the broker fleet at *address*.

        Returns the jobs that still need local execution: all of them
        when the broker was unreachable, the unresolved tail when the
        stream died mid-sweep or the fleet was exhausted, and an empty
        list on a clean fabric run. Never raises: every fabric failure
        mode degrades to local execution with a warning.
        """
        from ..core.errors import ConfigurationError, FabricError
        from ..fabric.client import FabricClient
        from ..fabric.protocol import FabricProtocolError, FabricUnavailable
        from .io import config_to_dict

        fab: Dict[str, object] = {
            "broker": address,
            "connected": False,
            "points_sent": 0,
            "points_executed": 0,
            "points_failed": 0,
            "results_from_peer_cache": 0,
            "leases_reassigned": 0,
            "heartbeats_missed": 0,
            "fallback_points": 0,
            "workers_seen": 0,
            "counters_complete": False,
        }
        self.last_fabric = fab
        client = FabricClient(address)
        try:
            client.connect()
        except FabricUnavailable as exc:
            fab["error"] = str(exc)
            fab["fallback_points"] = len(pending)
            warnings.warn(
                f"sweep fabric: {exc}; running {len(pending)} point(s) "
                f"on the local pool",
                RuntimeWarning,
                stacklevel=2,
            )
            return pending
        fab["connected"] = True

        by_index: Dict[int, _Job] = {}
        specs = []
        now = time.monotonic()
        for job in pending:
            if job.key is None:
                # Cache off locally; the fleet still needs the content
                # key to dedup and store results.
                job.key = config_cache_key(job.config)
            job.last_start = now
            by_index[job.index] = job
            specs.append({
                "index": job.index,
                "key": job.key,
                "config": config_to_dict(job.config),
            })
        fab["points_sent"] = len(specs)
        unresolved = dict(by_index)
        try:
            client.submit(specs, options={
                "job_timeout": self.job_timeout,
                "max_retries": self.max_retries,
            })
            for msg in client.events():
                mtype = msg.get("type")
                if mtype in ("point", "point_failed"):
                    index = msg.get("index")
                    if type(index) is not int:
                        raise FabricProtocolError(f"{mtype} frame without an index")
                    if index not in unresolved:
                        continue
                if mtype == "point":
                    # Decode before resolving: a point whose summary does
                    # not decode stays unresolved and runs locally.
                    summary = MetricsSummary.from_dict(msg.get("summary"))
                    job = unresolved.pop(index)
                    results[job.index] = summary
                    if msg.get("cached"):
                        fab["results_from_peer_cache"] += 1
                    else:
                        fab["points_executed"] += 1
                    self._record_ok(job, summary)
                elif mtype == "point_failed":
                    job = unresolved.pop(index)
                    job.last_kind = str(msg.get("kind", "exception"))
                    job.last_error = str(msg.get("error", ""))
                    job.attempts = int(msg.get("attempts", 1))
                    fab["points_failed"] += 1
                    results[job.index] = self._record_failed(job)
                elif mtype == "fleet-exhausted":
                    warnings.warn(
                        f"sweep fabric: no workers at {address}; running "
                        f"{len(unresolved)} point(s) on the local pool",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                elif mtype == "done":
                    counters = msg.get("counters") or {}
                    for name in (
                        "leases_reassigned", "heartbeats_missed",
                        "workers_seen",
                    ):
                        fab[name] = counters.get(name, 0)
                    fab["fleet_counters"] = counters
                    fab["counters_complete"] = True
        except (FabricError, ConfigurationError, OSError) as exc:
            # A lost connection and a frame that does not decode end the
            # stream alike: whatever is unresolved runs locally.
            fab["error"] = str(exc)
            warnings.warn(
                f"sweep fabric: stream from {address} lost "
                f"({exc}); running {len(unresolved)} remaining point(s) "
                f"on the local pool",
                RuntimeWarning,
                stacklevel=2,
            )
        finally:
            client.close()
        leftovers = [by_index[i] for i in sorted(unresolved)]
        fab["fallback_points"] = len(leftovers)
        return leftovers

    # --------------------------------------------------------- pool dispatch

    def _run_pool(self, pending, results) -> None:
        """One job per slot until every job has a result or a FailedRun."""
        queue: List[_Job] = list(pending)
        while len(self._slots) < min(self.processes, len(queue)):
            self._slots.append(JobSlot(run_scenario))
        busy: Dict[JobSlot, _Job] = {}
        try:
            while queue or busy:
                now = time.monotonic()
                # Innocent-first ordering: fewest attempts, then input
                # order, keeps a repeat offender from starving others.
                queue.sort(key=lambda j: (j.attempts, j.index))
                idle = [s for s in self._slots if s not in busy]
                for slot, job in zip(idle, [j for j in queue if j.not_before <= now]):
                    queue.remove(job)
                    job.last_start = now
                    slot.start(job.config, self.job_timeout)
                    busy[slot] = job
                # Wake for the first backed-off job; due ones wait for a slot.
                wake = min((j.not_before for j in queue if j.not_before > now), default=None)
                timeout = None if wake is None else max(wake - time.monotonic(), 0.0)
                if not busy:
                    time.sleep(timeout)
                    continue
                wait_any(busy, timeout)
                for slot in list(busy):
                    outcome = slot.outcome()
                    if outcome is None:
                        continue
                    job, (kind, body) = busy.pop(slot), outcome
                    if kind == "ok":
                        results[job.index] = body
                        self._record_ok(job, body)
                        continue
                    if kind != "exception":  # its slot forks a new child
                        self.pool_restarts += 1
                    self._timeouts += kind == "timeout"
                    job.attempts += 1
                    job.last_kind, job.last_error = kind, str(body)
                    if job.attempts > self.max_retries:
                        results[job.index] = self._record_failed(job)
                        continue
                    backoff = self.retry_backoff * 2.0 ** (job.attempts - 1)
                    job.not_before = time.monotonic() + min(backoff, _MAX_BACKOFF)
                    self._retries += 1
                    queue.append(job)
        finally:
            # Interrupted: a busy child must not answer a later job.
            for slot in busy:
                slot.close()


# One shared executor per process: forks are expensive, and every sweep
# in a campaign can reuse the same slots.
_DEFAULT: Optional[SweepExecutor] = None


def default_executor(
    processes: Optional[int] = None,
    use_cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    job_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
) -> SweepExecutor:
    """The process-wide persistent executor, (re)built on demand.

    A new executor replaces the old one only when the requested worker
    count changes; cache and resilience settings apply per call.
    """
    global _DEFAULT
    want = _resolve_processes(processes)
    if _DEFAULT is None or _DEFAULT.processes != want:
        if _DEFAULT is not None:
            _DEFAULT.close()
        _DEFAULT = SweepExecutor(processes=want)
    if use_cache is not None:
        _DEFAULT.use_cache = use_cache
    else:
        _DEFAULT.use_cache = os.environ.get("MANETSIM_NO_SWEEP_CACHE") != "1"
    _DEFAULT._set_cache_dir(cache_dir)
    _DEFAULT.job_timeout = _resolve_timeout(job_timeout)
    _DEFAULT.max_retries = _resolve_retries(max_retries)
    return _DEFAULT


@atexit.register
def _shutdown() -> None:  # pragma: no cover - interpreter teardown
    if _DEFAULT is not None:
        _DEFAULT.close()
