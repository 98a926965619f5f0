"""Scenario configuration: one dataclass describing a full simulation.

The defaults are the paper's base scenario *(reconstructed — see
DESIGN.md)*: 50 nodes in 1500 m × 300 m, random waypoint at up to
20 m/s with a variable pause time, 10 CBR sources at 4 pkt/s with
64-byte packets, 802.11 DCF at 2 Mb/s with 250 m range, 900 s simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..core.errors import ConfigurationError
from ..core.schema import check_finite
from ..faults.plan import FaultPlanConfig

__all__ = ["ScenarioConfig", "PROTOCOLS", "MOBILITY_MODELS"]

#: Protocols the harness can instantiate by name.
PROTOCOLS = ("dsdv", "dsr", "aodv", "paodv", "cbrp", "olsr", "flooding", "oracle")

#: Mobility models the harness can instantiate by name.
MOBILITY_MODELS = ("waypoint", "manhattan", "rpgm", "static")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to build and run one simulation."""

    protocol: str = "aodv"
    seed: int = 1
    replication: int = 0

    # --- field & nodes ---------------------------------------------------
    n_nodes: int = 50
    field_size: Tuple[float, float] = (1500.0, 300.0)

    # --- mobility ----------------------------------------------------------
    mobility: str = "waypoint"
    max_speed: float = 20.0
    min_speed: float = 0.0
    pause_time: float = 0.0
    #: RPGM: number of groups and member tether radius (m).
    rpgm_groups: int = 4
    rpgm_radius: float = 100.0

    #: Static-placement layout: "uniform" scatters nodes over the whole
    #: field; "clusters" remaps the same per-node draws into
    #: ``n_clusters`` equal strips along the longer field axis separated
    #: by ``cluster_gap`` metres of empty space. With a gap wider than
    #: the carrier-sense range the clusters are radio-disjoint islands
    #: (F8's static tail). Only meaningful for ``mobility == "static"``.
    placement: str = "uniform"
    n_clusters: int = 4
    cluster_gap: float = 700.0

    # --- traffic -----------------------------------------------------------
    n_connections: int = 10
    rate: float = 4.0  # packets per second per source
    packet_size: int = 64
    traffic_start_window: Tuple[float, float] = (0.0, 180.0)

    # --- time ----------------------------------------------------------------
    duration: float = 900.0
    #: Packets created before this time are excluded from metrics
    #: (warm-up cut; 0 = measure everything).
    measure_from: float = 0.0

    # --- PHY / MAC ------------------------------------------------------------
    radio_range: float = 250.0  # oracle routing's reference range
    mac: str = "dcf"  # or "ideal"
    use_rtscts: bool = True
    ifq_capacity: int = 50

    # --- protocol options -------------------------------------------------
    #: PAODV preemption trigger as a fraction of nominal range (see
    #: repro.routing.paodv.PREEMPT_RANGE_RATIO for the rationale).
    preempt_ratio: float = 0.95
    #: DSR reply-from-cache (A3 ablation).
    dsr_reply_from_cache: bool = True
    #: DSR cache organization: "path" (default) or "link" (A7 ablation).
    dsr_cache: str = "path"
    #: CBRP cluster-pruned flooding (A4 ablation).
    cbrp_prune_flood: bool = True
    #: OLSR MPR flooding (A5 ablation).
    olsr_use_mpr: bool = True
    #: AODV/PAODV hello period; None = link-layer detection only.
    hello_interval: Optional[float] = None
    #: AODV local repair (RFC 3561 §6.12) — extension feature.
    aodv_local_repair: bool = False

    # --- performance -------------------------------------------------------
    #: Channel geometry sample period (s): transmissions sample node
    #: positions at ``floor(now/q)*q`` (the *position epoch*) so frames
    #: of one exchange share a snapshot and the fan-out cache can hit.
    #: 0 samples at exact frame times. The 5 ms default bounds the
    #: sampling error at 0.1 m for the paper's 20 m/s top speed.
    position_quantum: float = 0.005

    # --- fault injection ---------------------------------------------------
    #: Deterministic fault plan (node churn, link impairment, energy
    #: death, queue overload); ``None`` bypasses the fault subsystem
    #: entirely — the bit-identical pre-fault code path.
    faults: Optional[FaultPlanConfig] = None

    # --- observability -----------------------------------------------------
    #: Time the run by layer (``MetricsSummary.profile``). The profiler
    #: wraps layer entry points from outside for this run only, so the
    #: engine runs the same code either way; off, nothing is wrapped.
    profile: bool = False
    #: Sim-time seconds between telemetry probe sweeps; 0 disables the
    #: recorder entirely (no hooks installed, no events scheduled).
    telemetry_interval: float = 0.0
    #: Attach the packet flight recorder (per-packet drop-reason
    #: accounting + conservation report on ``MetricsSummary.flight``).
    #: Off by default: ``sim.flight`` stays None and no hook fires.
    flight: bool = False
    #: Additionally record the per-packet causal event trace, PHY
    #: arrival verdicts included (implies ``flight``). The run takes the
    #: same engines as an untraced one, the contention arena included.
    flight_trace: bool = False

    def __post_init__(self) -> None:
        check_finite(self)
        if self.protocol not in PROTOCOLS:
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; choose from {PROTOCOLS}"
            )
        if self.mobility not in MOBILITY_MODELS:
            raise ConfigurationError(
                f"unknown mobility {self.mobility!r}; choose from {MOBILITY_MODELS}"
            )
        if self.mac not in ("dcf", "ideal"):
            raise ConfigurationError(f"unknown mac {self.mac!r}")
        if self.n_nodes < 2:
            raise ConfigurationError("need at least 2 nodes")
        if self.duration <= 0:
            raise ConfigurationError("duration must be > 0")
        if self.pause_time < 0:
            raise ConfigurationError("pause_time must be >= 0")
        if self.n_connections < 1:
            raise ConfigurationError("need at least one connection")
        if self.placement not in ("uniform", "clusters"):
            raise ConfigurationError(
                f"placement must be 'uniform' or 'clusters', "
                f"got {self.placement!r}"
            )
        if self.placement == "clusters":
            if self.mobility != "static":
                raise ConfigurationError(
                    "placement='clusters' requires mobility='static'"
                )
            if self.n_clusters < 1:
                raise ConfigurationError("n_clusters must be >= 1")
            if self.cluster_gap < 0:
                raise ConfigurationError("cluster_gap must be >= 0")
        if self.dsr_cache not in ("path", "link"):
            raise ConfigurationError(
                f"dsr_cache must be 'path' or 'link', got {self.dsr_cache!r}"
            )
        if self.position_quantum < 0:
            raise ConfigurationError(
                f"position_quantum must be >= 0, got {self.position_quantum}"
            )
        if self.telemetry_interval < 0:
            raise ConfigurationError(
                f"telemetry_interval must be >= 0, got {self.telemetry_interval}"
            )
        if not 0.0 <= self.measure_from < self.duration:
            raise ConfigurationError(
                f"measure_from must be in [0, duration), got {self.measure_from}"
            )
        if self.faults is not None:
            if isinstance(self.faults, dict):
                # A plan given as a plain dict is decoded like JSON.
                object.__setattr__(
                    self, "faults", FaultPlanConfig.from_dict(self.faults)
                )
            elif not isinstance(self.faults, FaultPlanConfig):
                raise ConfigurationError(
                    f"faults must be a FaultPlanConfig or None, "
                    f"got {type(self.faults).__name__}"
                )

    # ---------------------------------------------------------------- utils

    def with_(self, **changes) -> "ScenarioConfig":
        """A modified copy (frozen-dataclass convenience)."""
        return replace(self, **changes)

    @property
    def run_seed(self) -> int:
        """Root seed folding in the replication index."""
        return self.seed * 1_000_003 + self.replication
