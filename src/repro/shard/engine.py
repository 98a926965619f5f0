"""The sharded run driver: build-and-mute workers over island plans.

Every shard builds the *full* scenario from the shared seed — identical
RNG draws, identical geometry, every node object present — then
activates (routing timers, traffic sources) only the nodes its
:class:`~repro.shard.partition.ShardPlan` strip owns. The rest are
inert **ghosts**: they never transmit, never receive (ownership masking
at fan-out build time keeps them out of every delivery set), and their
stats stay zero, but their positions feed the channel geometry so
every shard computes bit-identical fan-outs.

There is no synchronization, because only **island** plans run: when
the plan proves the strips radio-disjoint (:attr:`ShardPlan.island`),
no transmission can ever cross a cut and each shard free-runs the
whole duration independently — one worker process per shard. The merged
summary is **bit-identical** to the single event loop (pinned in
``tests/scenario/test_determinism.py``): per-shard uid blocks keep
packet/frame uids globally unique, and delivery records merge back
into single-loop order (see :mod:`repro.stats.metrics`). An armed
border outbox stays attached as a tripwire — any transmission that
reaches a foreign shard is a partitioner bug and raises
:class:`ShardError`.

A field with no radio-disjoint split raises :class:`ShardUnsupported`
and ``run_scenario`` runs it on the single loop. Cutting through a
radio-connected region cannot be made exact: 802.11 backoffs are
slot-quantized, so independent nodes' timers expire at exactly equal
timestamps, and whether a transmission at *t* freezes a rival's
backoff expiring at the same *t* depends on global event-seq order —
state that lives only in the single loop's one queue (DESIGN.md,
"Sharded engine").
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from typing import Optional

import numpy as np

from ..core.errors import ConfigurationError, SimulationError
from ..core.rng import RngStreams
from ..phy.propagation import WAVELAN_914MHZ
from ..scenario.options import EngineOptions
from ..stats.metrics import MetricsSummary, merge_shard_partials
from .partition import ShardPlan, make_plan

__all__ = ["ShardError", "ShardUnsupported", "run_sharded"]


class ShardError(SimulationError):
    """A sharded run failed (worker crash, partition violated)."""


class ShardUnsupported(ShardError):
    """The config cannot run sharded; callers may fall back to the
    single loop (``run_scenario`` does unless told to be strict)."""


def _check_config(cfg) -> None:
    """Raise :class:`ShardUnsupported` for configs the engine can't split."""
    if cfg.mobility != "static":
        raise ShardUnsupported(
            "sharded runs require mobility='static' (node migration is "
            "not implemented)"
        )
    if cfg.mac != "dcf":
        raise ShardUnsupported("sharded runs require mac='dcf' (batched PHY)")
    if cfg.faults is not None:
        raise ShardUnsupported("fault plans are not shard-aware yet")
    if cfg.profile:
        raise ShardUnsupported("profiling is per-loop; run it unsharded")
    if cfg.telemetry_interval > 0:
        raise ShardUnsupported("telemetry probes are per-loop; run unsharded")


def _static_positions(cfg) -> np.ndarray:
    """Node positions at t=0, recovered without building a simulator.

    Placement draws come from the named per-node mobility streams,
    which depend only on ``(run_seed, name)`` — exactly what
    ``build_scenario`` consumes — so these match every worker's built
    geometry bit for bit.
    """
    from ..scenario.build import _make_mobility

    models = _make_mobility(cfg, RngStreams(cfg.run_seed))
    return np.asarray([m.position(0.0) for m in models], dtype=np.float64)


def _interaction_reach(cfg) -> float:
    """Maximum distance at which one node's frame touches another (m).

    Mirrors the channel's d² prefilter: carrier-sense range plus its
    0.1% float-safety slack.
    """
    from ..scenario.build import _make_propagation

    return WAVELAN_914MHZ.cs_range(_make_propagation(cfg)) * 1.001


# ----------------------------------------------------------------- worker


def _run_shard(cfg, plan: ShardPlan, shard_id: int, options: EngineOptions):
    """One shard, start to finish: ``(metrics partial, perf counters)``.

    A fully built scenario in which only the nodes of strip *shard_id*
    are started, free-run for the whole duration.
    """
    from ..scenario.build import build_scenario

    # Disjoint uid blocks per shard: delivery dedup keys on origin_uid.
    # flight_phy=False: PHY verdict tracing selects the per-pair
    # arrival engine, which shards cannot use; drop accounting and
    # routing/MAC trace events still work per shard.
    scenario = build_scenario(
        cfg, options, uid_base=shard_id << 48,
        record_times=True, flight_phy=False,
    )
    channel = scenario.network.channel
    if not channel._batched:
        raise ShardUnsupported(
            "batched arrival engine inactive (non-batch-safe MAC)"
        )
    owned = np.zeros(cfg.n_nodes, dtype=bool)
    owned[plan.owned[shard_id]] = True
    outbox: list = []
    channel.configure_shard(owned, plan.owner, outbox)
    for node in scenario.network.nodes:
        if owned[node.node_id]:
            start = getattr(node.routing, "start", None)
            if start is not None:
                start()
    for src in scenario.sources:
        if owned[src.node.node_id]:
            src.begin()
    sim = scenario.sim
    sim.run(until=cfg.duration)
    if outbox:
        # Island plans must never produce a border message: anything
        # here means a transmission escaped its shard unobserved.
        raise ShardError(
            f"shard {shard_id}: {len(outbox)} border transmission(s) — "
            f"partition violated (first at t={outbox[0][0]:.6f} from "
            f"node {outbox[0][1]})"
        )
    channel.flush_phy_stats()
    if sim.flight is not None:
        # Residual scan before export so the shard's conservation
        # partial accounts for still-queued packets.
        sim.flight.scan_residuals(scenario.network.nodes)
    return scenario.collector.partial(scenario.network), sim.perf.as_dict()


def _shard_child(conn, cfg, plan, shard_id, options) -> None:
    """Worker-process main: run the shard, send the result or the error."""
    try:
        conn.send(("ok", _run_shard(cfg, plan, shard_id, options)))
    except BaseException:
        try:
            conn.send(("err", traceback.format_exc()))
        except OSError:  # parent already gone
            pass
    finally:
        conn.close()


def _run_process(cfg, plan: ShardPlan, options: EngineOptions) -> list:
    """Free-run every shard concurrently — the parallel payoff."""
    ctx = mp.get_context()
    workers = []
    try:
        for s in range(plan.n_shards):
            conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_shard_child,
                args=(child_conn, cfg, plan, s, options),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            workers.append((proc, conn))
        results = []
        for s, (proc, conn) in enumerate(workers):
            try:
                status, payload = conn.recv()
            except EOFError:
                proc.join()
                raise ShardError(
                    f"shard {s} worker died (exitcode {proc.exitcode})"
                ) from None
            if status != "ok":
                raise ShardError(f"shard {s} failed:\n{payload}")
            proc.join()
            results.append(payload)
        return results
    finally:
        for proc, conn in workers:
            conn.close()
            if proc.is_alive():
                proc.terminate()
                proc.join()


# -------------------------------------------------------------- frontend


def run_sharded(
    cfg,
    n_shards: int,
    exec_mode: str = "process",
    options: Optional[EngineOptions] = None,
) -> MetricsSummary:
    """Run *cfg* split across *n_shards* radio-disjoint spatial shards.

    ``exec_mode``:

    * ``"process"`` — one worker process per shard, all concurrent.
    * ``"inline"`` — the shards one after another in this process (no
      parallelism, peak memory of a single build; what the
      determinism tests use).

    Raises :class:`ShardUnsupported` for configs the engine cannot
    split: non-static mobility, faults, tracing, profiling, telemetry,
    non-DCF MACs, and fields with no *n_shards*-way radio-disjoint cut.
    """
    if n_shards < 2:
        raise ShardError(f"run_sharded needs n_shards >= 2, got {n_shards}")
    if exec_mode not in ("inline", "process"):
        raise ShardError(
            f"exec_mode must be inline|process, got {exec_mode!r}"
        )
    if options is None:
        options = EngineOptions.from_env()
    _check_config(cfg)
    positions = _static_positions(cfg)
    reach = _interaction_reach(cfg)
    try:
        plan = make_plan(positions, n_shards, reach, cfg.field_size)
    except ConfigurationError as exc:
        raise ShardUnsupported(str(exc)) from exc
    if not plan.island:
        raise ShardUnsupported(
            f"no {n_shards}-way radio-disjoint split exists (closest "
            f"cross-shard pair {plan.min_cross_gap:.1f} m <= reach "
            f"{plan.reach:.1f} m): cross-shard backoff-slot ties would "
            f"resolve differently from the single loop"
        )
    if exec_mode == "process":
        results = _run_process(cfg, plan, options)
    else:
        results = [
            _run_shard(cfg, plan, s, options) for s in range(plan.n_shards)
        ]
    partials = [r[0] for r in results]
    summary = merge_shard_partials(cfg.protocol, cfg.duration, partials)
    # Fleet-wide perf totals: sum the per-shard counter snapshots so
    # `repro run --perf` and the bench ratio gates see the whole fleet.
    merged_perf: dict = {}
    for _, perf in results:
        for key, value in perf.items():
            merged_perf[key] = merged_perf.get(key, 0) + value
    summary.perf = merged_perf
    return summary
