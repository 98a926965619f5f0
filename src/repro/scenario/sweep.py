"""Parameter sweeps with multiprocessing fan-out.

A sweep is the cross product (protocol × parameter value × replication);
every cell is an independent simulation, so the whole sweep is
embarrassingly parallel — the map-reduce shape the HPC guides
recommend. Workers receive pickled :class:`ScenarioConfig` objects
(frozen dataclasses of primitives) and return
:class:`~repro.stats.metrics.MetricsSummary` values; aggregation happens
in the parent.

Failures do not sink a sweep: points that exhaust their retries come
back as :class:`~repro.scenario.executor.FailedRun` records, are
excluded from aggregation, and are listed in
:attr:`SweepResult.failures` so a campaign can report and re-run them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..stats.aggregate import PointEstimate, aggregate_summaries
from ..stats.metrics import MetricsSummary
from .config import ScenarioConfig
from .executor import FailedRun, default_executor

__all__ = ["SweepPoint", "SweepResult", "run_sweep", "sweep_configs"]

#: Placeholder estimate for a cell with no successful replications.
_EMPTY = PointEstimate(float("nan"), float("nan"), 0)


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the sweep grid (before replication fan-out)."""

    protocol: str
    x: Any  # the swept parameter's value
    config: ScenarioConfig


@dataclass
class SweepResult:
    """Aggregated metrics for every (protocol, x) cell."""

    param: str
    xs: List[Any]
    protocols: List[str]
    #: (protocol, x) -> {metric: PointEstimate}
    cells: Dict[Tuple[str, Any], Dict[str, PointEstimate]]
    #: (protocol, x) -> raw per-replication summaries (successes only)
    raw: Dict[Tuple[str, Any], List[MetricsSummary]]
    #: Points that exhausted their retries (empty on a clean sweep).
    failures: List[FailedRun] = field(default_factory=list)
    #: Store hits / misses at dispatch (not simulation results).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Run manifest from the executor (see repro.obs.manifest): worker
    #: count, executed/cached job counts, retries, wall times. The
    #: on-disk copy lives at ``manifest_path`` when caching was on.
    manifest: Optional[dict] = None
    manifest_path: Optional[str] = None
    #: Fabric dispatch record (broker, peer-cache hits, lease
    #: reassignments, fallback counts); None when no broker was used.
    fabric: Optional[dict] = None

    def series(self, protocol: str, metric: str) -> List[float]:
        """Metric means across the sweep for one protocol.

        Cells whose every replication failed yield ``nan`` so a partial
        sweep still plots.
        """
        return [
            self.cells.get((protocol, x), {}).get(metric, _EMPTY).mean
            for x in self.xs
        ]

    def estimate(self, protocol: str, x: Any, metric: str) -> PointEstimate:
        return self.cells.get((protocol, x), {}).get(metric, _EMPTY)

    @property
    def ok(self) -> bool:
        """True when every point produced a summary."""
        return not self.failures


def sweep_configs(
    base: ScenarioConfig,
    param: str,
    values: Sequence[Any],
    protocols: Sequence[str],
    replications: int,
) -> List[Tuple[SweepPoint, ScenarioConfig]]:
    """Expand the sweep grid into concrete runnable configs."""
    jobs: List[Tuple[SweepPoint, ScenarioConfig]] = []
    for proto in protocols:
        for x in values:
            cell_cfg = base.with_(protocol=proto, **{param: x})
            point = SweepPoint(proto, x, cell_cfg)
            for r in range(replications):
                jobs.append((point, cell_cfg.with_(replication=r)))
    return jobs


def run_sweep(
    base: ScenarioConfig,
    param: str,
    values: Sequence[Any],
    protocols: Sequence[str],
    replications: int = 3,
    processes: Optional[int] = None,
    cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    job_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    progress: bool = False,
    fabric: Optional[str] = None,
) -> SweepResult:
    """Run the full grid on the persistent sweep executor.

    Parameters
    ----------
    processes:
        Worker count; ``None`` consults ``MANETSIM_PROCESSES`` then
        ``os.cpu_count()``; ``1`` runs inline (logged, never silent) —
        handy under pytest and for debugging.
    cache:
        On-disk result cache toggle; ``None`` follows
        ``MANETSIM_NO_SWEEP_CACHE``. Cached and fresh summaries are
        bit-identical, so toggling this never changes results. With
        the cache on, re-running an interrupted sweep executes only
        the points the store lacks.
    cache_dir:
        Cache root override (default ``.manetsim-cache/``).
    job_timeout / max_retries:
        Per-job resilience knobs, forwarded to the executor (``None``
        consults ``MANETSIM_JOB_TIMEOUT`` / ``MANETSIM_JOB_RETRIES``).
    progress:
        Emit the executor's single-line progress display (done/total,
        failures, jobs/s, ETA) on stderr while the sweep runs.
    fabric:
        ``host:port`` of a :mod:`repro.fabric` broker; cache misses run
        on its worker fleet (identical configs computed once
        fleet-wide). Unreachable broker, lost connection, or an
        exhausted fleet all degrade to the local pool with a warning —
        never a failed sweep.
    """
    jobs = sweep_configs(base, param, values, protocols, replications)
    configs = [cfg for _point, cfg in jobs]
    executor = default_executor(
        processes=processes,
        use_cache=cache,
        cache_dir=cache_dir,
        job_timeout=job_timeout,
        max_retries=max_retries,
    )
    results = executor.run(configs, progress=progress, fabric=fabric)

    raw: Dict[Tuple[str, Any], List[MetricsSummary]] = {}
    failures: List[FailedRun] = []
    for (point, _cfg), outcome in zip(jobs, results):
        if isinstance(outcome, FailedRun):
            failures.append(outcome)
            raw.setdefault((point.protocol, point.x), [])
        else:
            raw.setdefault((point.protocol, point.x), []).append(outcome)

    cells = {key: aggregate_summaries(v) for key, v in raw.items()}
    return SweepResult(
        param=param,
        xs=list(values),
        protocols=list(protocols),
        cells=cells,
        raw=raw,
        failures=failures,
        cache_hits=executor.last_cache_hits,
        cache_misses=executor.last_cache_misses,
        manifest=executor.last_manifest,
        manifest_path=(
            str(executor.last_manifest_path)
            if executor.last_manifest_path is not None
            else None
        ),
        fabric=executor.last_fabric,
    )
