"""Sweep run manifests and the single-line progress display.

A *manifest* is the provenance record of one sweep execution: what was
run (a content hash over every job key), on what toolchain (git SHA,
python/numpy versions, platform), under which resolved
:class:`~repro.scenario.options.EngineOptions`, and how it went
(per-job wall times, retry/timeout/broken-pool counts, worker
utilization, executed/cached accounting). The
executor writes it as ``manifest.json`` at the root of the result
store, so a campaign directory is self-describing and two sweeps are
diffable.

Job-count reconciliation invariant (tested, and gated in CI by
``scripts/check_bench_regression.py --manifest``):
``jobs_total == jobs_executed + jobs_from_cache`` — points the store
answered count as already completed, never as fresh executions. The
invariant holds under fabric dispatch too: points answered by a
broker's shared store count as cache hits
(``fabric.results_from_peer_cache``), points computed by fleet
workers count as executions, and lease reassignments
(``fabric.leases_reassigned``, ``fabric.heartbeats_missed``) move work
between workers without ever double-counting a job.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO, Union

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "write_manifest",
    "manifest_summary_pairs",
    "git_sha",
    "ProgressLine",
]

MANIFEST_SCHEMA_VERSION = 1


def _as_float(value, default: float = 0.0) -> float:
    """Coerce a manifest field to float, defaulting on junk/absence."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return default


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """Current git commit SHA, or ``None`` outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _numpy_version() -> Optional[str]:
    try:
        import numpy

        return numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep today
        return None


def build_manifest(
    *,
    job_keys: Sequence[str],
    jobs_executed: int,
    jobs_from_cache: int,
    failures: Sequence[dict],
    retries: int,
    timeouts: int,
    pool_restarts: int,
    workers: int,
    wall_time_s: float,
    job_wall_times_s: Dict[int, float],
    cache_salt: str,
    engine_options: dict,
    fabric: Optional[dict] = None,
) -> dict:
    """Assemble the manifest dict for one executor run."""
    # Job walls are measured from submission, so queue wait inflates
    # ``busy`` — clamp to 1.0 rather than report impossible utilization.
    busy = sum(job_wall_times_s.values())
    utilization = (
        min(busy / (wall_time_s * workers), 1.0)
        if wall_time_s > 0 and workers
        else 0.0
    )
    sweep_key = hashlib.sha256(
        "\n".join(sorted(k or "" for k in job_keys)).encode()
    ).hexdigest()
    return {
        "schema": MANIFEST_SCHEMA_VERSION,
        "created_unix": time.time(),
        "sweep_key": sweep_key,
        "cache_salt": cache_salt,
        "jobs_total": len(job_keys),
        "jobs_executed": jobs_executed,
        "jobs_from_cache": jobs_from_cache,
        "jobs_failed": len(failures),
        "failures": list(failures),
        "retries": retries,
        "timeouts": timeouts,
        "pool_restarts": pool_restarts,
        "workers": workers,
        "wall_time_s": wall_time_s,
        "job_wall_times_s": {str(k): v for k, v in job_wall_times_s.items()},
        "worker_utilization": utilization,
        "fabric": fabric,
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": _numpy_version(),
        "platform": platform.platform(),
        "engine_options": engine_options,
    }


def write_manifest(manifest: dict, path: Union[str, Path]) -> None:
    """Atomically publish *manifest* as JSON at *path*."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp.%d" % os.getpid())
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def manifest_summary_pairs(manifest: dict) -> dict:
    """Headline key/value pairs for table rendering (``obs report``).

    Every lookup is defaulted and coerced: a manifest missing optional
    sections (null ``sweep_key``, absent ``job_wall_times_s``, no
    ``fabric`` block, unparseable wall times) renders what it has
    instead of raising.
    """
    raw_times = manifest.get("job_wall_times_s") or {}
    times = []
    for v in raw_times.values():
        try:
            times.append(float(v))
        except (TypeError, ValueError):
            continue
    pairs = {
        "sweep key": str(manifest.get("sweep_key") or "?")[:16],
        "created": time.strftime(
            "%Y-%m-%d %H:%M:%S",
            time.localtime(_as_float(manifest.get("created_unix"))),
        ),
        "git sha": (manifest.get("git_sha") or "n/a")[:12],
        "python / numpy": (
            f"{manifest.get('python', '?')} / {manifest.get('numpy', '?')}"
        ),
        "jobs total": manifest.get("jobs_total", 0),
        "jobs executed": manifest.get("jobs_executed", 0),
        "jobs from cache": manifest.get("jobs_from_cache", 0),
        "jobs failed": manifest.get("jobs_failed", 0),
        "retries / timeouts / pool restarts": (
            f"{manifest.get('retries', 0)} / {manifest.get('timeouts', 0)} / "
            f"{manifest.get('pool_restarts', 0)}"
        ),
        "workers": manifest.get("workers", 0),
        "wall time (s)": round(_as_float(manifest.get("wall_time_s")), 3),
        "worker utilization": round(
            _as_float(manifest.get("worker_utilization")), 3
        ),
    }
    if times:
        pairs["job wall time mean/max (s)"] = (
            f"{sum(times) / len(times):.3f} / {max(times):.3f}"
        )
    fabric = manifest.get("fabric")
    if isinstance(fabric, dict) and fabric:
        pairs["fabric broker"] = fabric.get("broker", "?")
        if not fabric.get("connected"):
            pairs["fabric status"] = "unreachable (local fallback)"
        else:
            pairs["fabric executed / peer-cache"] = (
                f"{fabric.get('points_executed', 0)} / "
                f"{fabric.get('results_from_peer_cache', 0)}"
            )
            pairs["fabric leases reassigned / heartbeats missed"] = (
                f"{fabric.get('leases_reassigned', 0)} / "
                f"{fabric.get('heartbeats_missed', 0)}"
            )
            pairs["fabric workers seen"] = fabric.get("workers_seen", 0)
            if fabric.get("fallback_points"):
                pairs["fabric fallback points (run locally)"] = fabric[
                    "fallback_points"
                ]
    return pairs


class ProgressLine:
    """Opt-in single-line sweep progress: ``done/total, failures, ETA``.

    Re-run aware: points the store already holds seed ``done``
    up front and are excluded from the jobs/s rate, so the ETA reflects
    only work that still has to execute. Rendered with a carriage
    return, so the line updates in place on a terminal; :meth:`finish`
    terminates it with a newline.
    """

    def __init__(
        self,
        total: int,
        already_done: int = 0,
        stream: Optional[TextIO] = None,
        min_interval: float = 0.0,
    ):
        self.total = total
        self.done = already_done
        self.already_done = already_done
        self.failures = 0
        self.fresh = 0
        self._t0 = time.monotonic()
        self._stream = stream if stream is not None else sys.stderr
        self._min_interval = min_interval
        self._last_render = -1.0
        self._rendered = False
        if total:
            self._render(force=True)

    # ------------------------------------------------------------- updates

    def update(self, ok: bool = True) -> None:
        """Record one freshly finished job."""
        self.done += 1
        self.fresh += 1
        if not ok:
            self.failures += 1
        self._render(force=self.done >= self.total)

    def line(self) -> str:
        elapsed = max(time.monotonic() - self._t0, 1e-9)
        rate = self.fresh / elapsed
        remaining = self.total - self.done
        if remaining <= 0:
            eta = "done"
        elif rate > 0:
            eta = f"eta {self._fmt_s(remaining / rate)}"
        else:
            eta = "eta --"
        parts = [
            f"sweep {self.done}/{self.total}",
            f"{self.failures} failed",
            f"{rate:.1f} jobs/s",
            eta,
        ]
        if self.already_done:
            parts.append(f"{self.already_done} cached")
        return "[" + ", ".join(parts) + "]"

    @staticmethod
    def _fmt_s(seconds: float) -> str:
        if seconds >= 3600:
            return f"{seconds / 3600:.1f}h"
        if seconds >= 60:
            return f"{seconds / 60:.1f}m"
        return f"{seconds:.0f}s"

    def _render(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_render < self._min_interval:
            return
        self._last_render = now
        self._rendered = True
        print("\r" + self.line(), end="", file=self._stream, flush=True)

    def finish(self) -> None:
        """Terminate the in-place line (no-op when nothing rendered)."""
        if self._rendered:
            print(file=self._stream)
            self._rendered = False
