"""Scenario assembly: config → (simulator, network, traffic, collector)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.errors import ConfigurationError
from ..core.simulator import Simulator
from ..faults.manager import FaultManager
from ..mac.dcf import DcfMac
from ..mac.ideal import IdealMac
from ..mobility import Field, RandomWaypoint, StaticPosition
from ..net.stack import Network, build_network
from ..obs.profiler import Profiler
from ..phy.propagation import WAVELAN_914MHZ, TwoRayGround
from ..routing import (
    Aodv,
    Cbrp,
    Dsdv,
    Dsr,
    Flooding,
    Olsr,
    OracleRouting,
    Paodv,
    default_preempt_threshold,
)
from ..stats.metrics import MetricsCollector
from ..traffic import CbrSource, generate_connections
from .config import ScenarioConfig
from .options import EngineOptions

__all__ = ["Scenario", "build_scenario"]

#: Protocols that benefit from promiscuous (overhearing) MACs.
_PROMISCUOUS = {"dsr"}


@dataclass
class Scenario:
    """A fully wired simulation ready to run."""

    config: ScenarioConfig
    sim: Simulator
    network: Network
    sources: List
    collector: MetricsCollector
    #: Present only when the config carries a fault plan.
    faults: Optional[FaultManager] = None
    #: Present only when ``config.profile``: installed by the build, removed by run.
    profiler: Optional[Profiler] = None

    def run(self):
        """Execute to ``config.duration`` and return the metrics summary."""
        try:
            self.network.start_routing()
            for src in self.sources:
                src.begin()
            if self.faults is not None:
                self.faults.start()
            self.sim.run(until=self.config.duration)
            # Batched-engine stat deltas live in ledger arrays until read
            # time; fold them into RadioStats before any consumer looks.
            self.network.channel.flush_phy_stats()
            summary = self.collector.finish(self.network, self.config.duration)
        finally:
            if self.profiler is not None:
                self.profiler.remove()
        if self.faults is not None:
            self.faults.apply(summary, self.config.duration)
        summary.perf = self.sim.perf.as_dict()
        if self.profiler is not None:
            summary.profile = self.profiler.as_dict()
        flight = self.sim.flight
        if flight is not None:
            flight.scan_residuals(self.network.nodes)
            summary.flight = flight.summary_dict()
        return summary


def _cluster_point(cfg: ScenarioConfig, field: Field, i: int, x: float, y: float):
    """Remap a uniform draw into node *i*'s cluster strip.

    Pure function of the draw (it consumes no extra randomness), so a
    clustered field draws exactly the streams a uniform one does.
    Strips run along the longer field axis; node ids are assigned to
    clusters in contiguous blocks.
    """
    k = cfg.n_clusters
    gap = cfg.cluster_gap
    w, h = field.width, field.height
    span = w if w >= h else h
    strip = (span - (k - 1) * gap) / k
    if strip <= 0:
        raise ConfigurationError(
            f"{k} clusters with {gap} m gaps do not fit in a "
            f"{span} m field axis"
        )
    c = i * k // cfg.n_nodes
    if w >= h:
        return c * (strip + gap) + (x / w) * strip, y
    return x, c * (strip + gap) + (y / h) * strip


def _make_mobility(cfg: ScenarioConfig, streams: "RngStreams"):
    """Per-node mobility models from the named RNG *streams*."""
    field = Field(*cfg.field_size)
    models = []
    for i in range(cfg.n_nodes):
        rng = streams.stream(f"mobility.{i}")
        if cfg.mobility == "waypoint":
            m = RandomWaypoint(
                field,
                rng,
                max_speed=cfg.max_speed,
                min_speed=cfg.min_speed,
                pause_time=cfg.pause_time,
            )
        else:  # static
            x, y = field.random_point(rng)
            if cfg.placement == "clusters":
                x, y = _cluster_point(cfg, field, i, x, y)
            m = StaticPosition(x, y)
        models.append(m)
    return models


def _routing_factory(cfg: ScenarioConfig, propagation, params):
    name = cfg.protocol

    if name == "dsdv":
        return lambda sim, nid, mac, rng: Dsdv(sim, nid, mac, rng, n_ids=cfg.n_nodes)
    if name == "dsr":
        return lambda sim, nid, mac, rng: Dsr(
            sim,
            nid,
            mac,
            rng,
            reply_from_cache=cfg.dsr_reply_from_cache,
            cache_kind=cfg.dsr_cache,
        )
    if name == "aodv":
        return lambda sim, nid, mac, rng: Aodv(
            sim,
            nid,
            mac,
            rng,
            hello_interval=cfg.hello_interval,
        )
    if name == "paodv":
        threshold = default_preempt_threshold(propagation, params, cfg.preempt_ratio)
        return lambda sim, nid, mac, rng: Paodv(
            sim,
            nid,
            mac,
            rng,
            preempt_threshold=threshold,
            hello_interval=cfg.hello_interval,
        )
    if name == "cbrp":
        return lambda sim, nid, mac, rng: Cbrp(
            sim, nid, mac, rng, prune_flood=cfg.cbrp_prune_flood
        )
    if name == "olsr":
        return lambda sim, nid, mac, rng: Olsr(sim, nid, mac, rng, use_mpr=cfg.olsr_use_mpr)
    if name == "flooding":
        return lambda sim, nid, mac, rng: Flooding(sim, nid, mac, rng)
    # oracle: mobility wired post-build (needs the manager)
    return lambda sim, nid, mac, rng: OracleRouting(
        sim, nid, mac, rng, radio_range=cfg.radio_range
    )


def _mac_factory(cfg: ScenarioConfig):
    promiscuous = cfg.protocol in _PROMISCUOUS
    if cfg.mac == "ideal":
        return lambda sim, radio, rng: IdealMac(sim, radio, ifq_capacity=cfg.ifq_capacity)
    return lambda sim, radio, rng: DcfMac(
        sim,
        radio,
        rng,
        ifq_capacity=cfg.ifq_capacity,
        use_rtscts=cfg.use_rtscts,
        promiscuous=promiscuous,
    )


def build_scenario(
    cfg: ScenarioConfig,
    options: Optional[EngineOptions] = None,
) -> Scenario:
    """Wire up every layer for *cfg* (deterministic in ``cfg.run_seed``).

    Every run resolves receptions on one PHY engine, and every DCF run
    contends through the contention arena, observed or not. A profiled
    config installs the profiler's wrappers before anything is built,
    so bound methods cached on the way are wrapped too; :meth:`Scenario.run`
    removes them. *options* (default: resolved from the environment) can
    attach the flight recorder and thin its trace; neither changes results.
    """
    profiler = Profiler() if cfg.profile else None
    if profiler is not None:
        profiler.install()
    try:
        return _build(cfg, options, profiler)
    except BaseException:
        if profiler is not None:
            profiler.remove()
        raise


def _build(cfg: ScenarioConfig, options, profiler) -> Scenario:
    from ..mac.frames import reset_frame_uids
    from ..net.packet import reset_packet_uids

    if options is None:
        options = EngineOptions.from_env()
    # Persistent sweep workers reuse one process for many runs: rewind
    # the uid sources so cached and fresh runs see identical sequences.
    reset_packet_uids()
    reset_frame_uids()
    sim = Simulator(seed=cfg.run_seed)
    if cfg.flight or cfg.flight_trace or options.flight:
        # Attached before the stack builds: the channel and radios
        # freeze their PHY trace hook at construction.
        from ..obs.flight import FlightRecorder

        sim.flight = FlightRecorder(
            sim, trace=cfg.flight_trace, sample=options.trace_sample
        )
    propagation = TwoRayGround()
    params = WAVELAN_914MHZ
    models = _make_mobility(cfg, sim.rng)
    network = build_network(
        sim,
        models,
        routing_factory=_routing_factory(cfg, propagation, params),
        mac_factory=_mac_factory(cfg),
        propagation=propagation,
        radio_params=params,
        position_quantum=cfg.position_quantum,
    )
    network.channel.enable_arena()
    if cfg.protocol == "oracle":
        for node in network.nodes:
            node.routing.mobility = network.mobility
    if sim.flight is not None:
        # Send buffers are built inside the routing agents (which have
        # no sim handle at drop time); wire the recorder + owner address
        # onto each one here. IFQs are wired by MacLayer.__init__.
        for node in network.nodes:
            buf = getattr(node.routing, "buffer", None)
            if buf is not None:
                buf.flight = sim.flight
                buf.addr = node.node_id

    collector = MetricsCollector(cfg.protocol)
    collector.flight = sim.flight
    collector.attach(network)

    connections = generate_connections(
        cfg.n_nodes,
        cfg.n_connections,
        sim.rng.stream("traffic.pattern"),
        start_window=cfg.traffic_start_window,
    )
    faults = None
    if cfg.faults is not None:
        faults = FaultManager(sim, network, cfg.faults, cfg.duration)

    sources = []
    for conn in connections:
        collector.flow(conn.flow_id, conn.src, conn.dst)
        sources.append(
            CbrSource(
                sim,
                network.nodes[conn.src],
                conn.dst,
                rate=cfg.rate,
                size=cfg.packet_size,
                flow_id=conn.flow_id,
                start=conn.start,
                stop=cfg.duration,
                rng=sim.rng.stream(f"traffic.{conn.flow_id}"),
                on_send=collector.on_send,
            )
        )
    return Scenario(cfg, sim, network, sources, collector, faults, profiler)
