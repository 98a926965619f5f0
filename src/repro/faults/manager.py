"""Fault execution: turn a :class:`FaultPlanConfig` into simulator events.

The :class:`FaultManager` is built alongside the network when a scenario
carries a fault plan. At :meth:`start` it pre-draws every churn schedule
from named RNG streams (``faults.churn.<node>``) and registers the
corresponding crash/recover events with the simulator; link impairment
is applied synchronously inside the channel's fan-out through the
``fault_hook`` interface.

Crash semantics
---------------
A crashed node is *mute and deaf*: its radio stops putting frames on the
air and stops detecting arrivals, and its routing agent is marked
``alive = False`` so it neither counts control overhead nor reacts to
events while down (see :mod:`repro.routing.base`). The MAC state machine
keeps running against the powered-off radio — transmissions complete
locally without touching the channel — so recovery is simply powering
the radio back on; the node rejoins with whatever stale protocol state
it crashed with, as a rebooted router would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..core.drops import DropReason
from ..core.errors import FaultInjectionError
from .plan import FaultPlanConfig

if TYPE_CHECKING:  # type-only: avoid import cycles with the stack builder
    from ..core.simulator import Simulator
    from ..net.stack import Network

__all__ = ["FaultManager", "FaultStats"]


class FaultStats:
    """Counters for every injected fault effect."""

    __slots__ = (
        "crashes",
        "link_drops",
        "partition_drops",
        "recovery_latencies",
    )

    def __init__(self) -> None:
        #: Crash events executed.
        self.crashes = 0
        #: Arrivals eaten by per-link random loss.
        self.link_drops = 0
        #: Arrivals cut by an active partition window.
        self.partition_drops = 0
        #: Completed crash→recover durations (s).
        self.recovery_latencies: List[float] = []

    @property
    def packets_lost(self) -> int:
        """Arrivals cut by link loss or a partition (a down radio's
        lost frames are counted in its own :class:`RadioStats`)."""
        return self.link_drops + self.partition_drops


class FaultManager:
    """Drives one scenario's fault plan against a wired-up network.

    Parameters
    ----------
    sim, network:
        The kernel and the assembled stack (radios, MACs, routing).
    plan:
        The fault plan; an all-default plan produces no events.
    duration:
        Scenario duration — churn schedules and downtime accounting
        are bounded by it.
    """

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        plan: FaultPlanConfig,
        duration: float,
    ):
        self.sim = sim
        self.network = network
        self.plan = plan
        self.duration = duration
        self.stats = FaultStats()
        self._down_since = [0.0] * len(network.nodes)
        self._link_rng = sim.rng.stream("faults.link") if plan.link_loss > 0 else None
        self._started = False
        # The channel consults us on every fan-out once attached.
        network.channel.fault_hook = self

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Draw the fault schedules and register every timed event."""
        if self._started:
            raise FaultInjectionError("fault manager already started")
        self._started = True
        if self.plan.churn_rate > 0.0:
            self._schedule_churn()

    def _schedule_churn(self) -> None:
        """Pre-draw each node's crash/recover timeline (deterministic)."""
        plan = self.plan
        sim = self.sim
        mean_gap = 1.0 / plan.churn_rate
        for i in range(len(self.network.nodes)):
            rng = sim.rng.stream(f"faults.churn.{i}")
            t = float(rng.exponential(mean_gap))
            while t < self.duration:
                downtime = float(rng.exponential(plan.mean_downtime))
                sim.schedule_at(t, self._crash, i)
                recover_at = t + downtime
                if recover_at < self.duration:
                    sim.schedule_at(recover_at, self._recover, i)
                t = recover_at + float(rng.exponential(mean_gap))

    # --------------------------------------------------------- churn events

    def _crash(self, node_id: int) -> None:
        nodes = self.network.nodes
        if not 0 <= node_id < len(nodes):
            raise FaultInjectionError(f"no such node to crash: {node_id}")
        node = nodes[node_id]
        if node.radio.is_down:
            return
        self._down_since[node_id] = self.sim.now
        node.radio.power_off()
        routing = node.routing
        routing.alive = False
        down_hook = getattr(routing, "on_node_down", None)
        if down_hook is not None:
            down_hook()
        # Queued traffic dies with the node.
        for pkt, _nh in node.mac.ifq.clear():
            self.sim.drops.drop(pkt, DropReason.CRASH_QUEUE, node_id)
        self.stats.crashes += 1

    def _recover(self, node_id: int) -> None:
        node = self.network.nodes[node_id]
        if not node.radio.is_down:
            return
        node.radio.power_on()
        routing = node.routing
        routing.alive = True
        up_hook = getattr(routing, "on_node_up", None)
        if up_hook is not None:
            up_hook()
        latency = self.sim.now - self._down_since[node_id]
        self.stats.recovery_latencies.append(latency)

    # ------------------------------------------- channel fault-hook interface

    def _active_partition(self, now: float) -> Optional[float]:
        for start, stop, x_split in self.plan.partitions:
            if start <= now < stop:
                return x_split
        return None

    def filter_targets_array(self, src_id: int, ids, now: float):
        """Channel callback: mask fan-out entries eaten by active faults.

        Called once per transmission with the fan-out's receiver-id
        array; returns a keep-mask, or ``None`` when no partition or
        link loss is active (keep everything, so a no-op plan cannot
        perturb arrival ordering). A powered-off receiver is always
        kept: the PHY makes it deaf and counts the arrival in its
        ``RadioStats.down_rx_drops``. The checks run in receiver order
        and the link-loss RNG is drawn once per surviving candidate
        that is up, so a plan is bit-reproducible.
        """
        stats = self.stats
        plan = self.plan
        x_split = self._active_partition(now) if plan.partitions else None
        loss = plan.link_loss
        if x_split is None and loss == 0.0:
            return None
        if x_split is not None:
            positions = self.network.mobility.positions(now)
            src_side = positions[src_id, 0] < x_split
        rng = self._link_rng
        radios = self.network.channel.radios
        keep = np.ones(ids.shape[0], dtype=bool)
        for k, nid in enumerate(ids.tolist()):
            if radios[nid].is_down:
                continue
            if x_split is not None and (positions[nid, 0] < x_split) != src_side:
                stats.partition_drops += 1
                keep[k] = False
                continue
            if loss > 0.0 and rng.random() < loss:
                stats.link_drops += 1
                keep[k] = False
        return keep

    # -------------------------------------------------------------- summary

    def apply(self, summary, duration: float) -> None:
        """Fold fault accounting into a finished metrics summary."""
        stats = self.stats
        downtime = sum(stats.recovery_latencies)
        down_drops = 0
        for i, node in enumerate(self.network.nodes):
            radio = node.radio
            if radio.is_down:
                downtime += duration - self._down_since[i]
            down_drops += radio.stats.down_rx_drops + radio.stats.down_tx_drops
        lats = stats.recovery_latencies
        summary.fault_crashes = stats.crashes
        summary.fault_downtime = downtime
        summary.fault_recovery_latency = sum(lats) / len(lats) if lats else 0.0
        summary.fault_packets_lost = stats.packets_lost + down_drops
