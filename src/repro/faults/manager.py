"""Fault execution: turn a :class:`FaultPlanConfig` into simulator events.

The :class:`FaultManager` is built alongside the network when a scenario
carries a fault plan. At :meth:`start` it pre-draws every churn schedule
from named RNG streams (``faults.churn.<node>``) and registers the
corresponding crash/recover events with the simulator; link impairment
is applied synchronously inside the channel's fan-out through the
``fault_hook`` interface, and energy-depletion death is a periodic check
against the radios' airtime counters using the standard
:class:`~repro.stats.energy.EnergyParams` draws.

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

from typing import TYPE_CHECKING, List, Optional, Set

import numpy as np

from ..core.drops import DropReason
from ..core.errors import FaultInjectionError
from ..stats.energy import EnergyParams
from .plan import FaultPlanConfig

if TYPE_CHECKING:  # type-only: avoid import cycles with the stack builder
    from ..core.simulator import Simulator
    from ..net.stack import Network

__all__ = ["FaultManager", "FaultStats"]


class FaultStats:
    """Counters for every injected fault effect."""

    __slots__ = (
        "crashes",
        "recoveries",
        "energy_deaths",
        "link_drops",
        "blackout_drops",
        "partition_drops",
        "down_rx_drops",
        "crash_queue_drops",
        "recovery_latencies",
    )

    def __init__(self) -> None:
        #: Crash events executed (churn + energy deaths).
        self.crashes = 0
        self.recoveries = 0
        #: Permanent deaths from an exhausted energy budget.
        self.energy_deaths = 0
        #: Arrivals eaten by per-link random loss.
        self.link_drops = 0
        #: Arrivals suppressed by a blackout window.
        self.blackout_drops = 0
        #: Arrivals cut by an active partition window.
        self.partition_drops = 0
        #: Arrivals suppressed because the receiver was down.
        self.down_rx_drops = 0
        #: Queued data packets destroyed by a crash (IFQ wiped).
        self.crash_queue_drops = 0
        #: Completed crash→recover durations (s).
        self.recovery_latencies: List[float] = []

    @property
    def packets_lost(self) -> int:
        """Receiver-side arrivals suppressed by any injected fault."""
        return (
            self.link_drops
            + self.blackout_drops
            + self.partition_drops
            + self.down_rx_drops
        )


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
    energy_params:
        Power draws used for energy-depletion death (defaults to the
        WaveLAN numbers in :mod:`repro.stats.energy`).
    """

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        plan: FaultPlanConfig,
        duration: float,
        energy_params: EnergyParams = EnergyParams(),
    ):
        self.sim = sim
        self.network = network
        self.plan = plan
        self.duration = duration
        self.energy_params = energy_params
        self.stats = FaultStats()
        n = len(network.nodes)
        self._down = [False] * n
        self._down_since = [0.0] * n
        self._permanently_down: Set[int] = set()
        self._link_rng = sim.rng.stream("faults.link") if plan.link_loss > 0 else None
        self._started = False
        # The channel consults us on every fan-out once attached.
        network.channel.fault_hook = self
        self._ifq_caps: Optional[List[int]] = None

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Draw the fault schedules and register every timed event."""
        if self._started:
            raise FaultInjectionError("fault manager already started")
        self._started = True
        plan = self.plan
        sim = self.sim
        if plan.churn_rate > 0.0:
            self._schedule_churn()
        if plan.energy_budget_j > 0.0:
            sim.schedule(plan.energy_check_interval, self._energy_check)
        for start, stop in plan.overload_windows:
            if start < self.duration:
                sim.schedule_at(start, self._overload_begin)
                sim.schedule_at(min(stop, self.duration), self._overload_end)

    def _schedule_churn(self) -> None:
        """Pre-draw each node's crash/recover timeline (deterministic)."""
        plan = self.plan
        sim = self.sim
        stop = plan.churn_stop if plan.churn_stop is not None else self.duration
        stop = min(stop, self.duration)
        mean_gap = 1.0 / plan.churn_rate
        for i in range(len(self.network.nodes)):
            rng = sim.rng.stream(f"faults.churn.{i}")
            t = plan.churn_start + float(rng.exponential(mean_gap))
            while t < stop:
                downtime = float(rng.exponential(plan.mean_downtime))
                sim.schedule_at(t, self._crash, i, False)
                recover_at = t + downtime
                if recover_at < self.duration:
                    sim.schedule_at(recover_at, self._recover, i)
                t = recover_at + float(rng.exponential(mean_gap))

    # --------------------------------------------------------- churn events

    def _crash(self, node_id: int, permanent: bool) -> None:
        if not 0 <= node_id < len(self._down):
            raise FaultInjectionError(f"no such node to crash: {node_id}")
        if self._down[node_id]:
            if permanent:
                self._permanently_down.add(node_id)
            return  # already down (energy death raced a churn crash)
        node = self.network.nodes[node_id]
        self._down[node_id] = True
        self._down_since[node_id] = self.sim.now
        if permanent:
            self._permanently_down.add(node_id)
        node.radio.power_off()
        routing = node.routing
        routing.alive = False
        down_hook = getattr(routing, "on_node_down", None)
        if down_hook is not None:
            down_hook()
        # Queued traffic dies with the node.
        lost = node.mac.ifq.clear()
        if lost:
            flight = self.sim.flight
            for pkt, _nh in lost:
                if pkt.is_data:
                    self.stats.crash_queue_drops += 1
                    if flight is not None:
                        flight.drop(pkt, DropReason.CRASH_QUEUE, node_id)
        self.stats.crashes += 1

    def _recover(self, node_id: int) -> None:
        if not self._down[node_id] or node_id in self._permanently_down:
            return  # never recovered: energy death is final
        node = self.network.nodes[node_id]
        self._down[node_id] = False
        node.radio.power_on()
        routing = node.routing
        routing.alive = True
        up_hook = getattr(routing, "on_node_up", None)
        if up_hook is not None:
            up_hook()
        latency = self.sim.now - self._down_since[node_id]
        self.stats.recoveries += 1
        self.stats.recovery_latencies.append(latency)

    # --------------------------------------------------------------- energy

    def _energy_check(self) -> None:
        """Kill nodes whose cumulative radio energy exceeds the budget."""
        budget = self.plan.energy_budget_j
        params = self.energy_params
        now = self.sim.now
        for i, node in enumerate(self.network.nodes):
            if self._down[i]:
                continue
            s = node.radio.stats
            tx_t = min(s.airtime_tx, now)
            rx_t = min(s.airtime_rx, now - tx_t)
            idle_t = max(now - tx_t - rx_t, 0.0)
            joules = (
                tx_t * params.tx_power_w
                + rx_t * params.rx_power_w
                + idle_t * params.idle_power_w
            )
            if joules >= budget:
                self.stats.energy_deaths += 1
                self._crash(i, True)
        if now + self.plan.energy_check_interval < self.duration:
            self.sim.schedule(self.plan.energy_check_interval, self._energy_check)

    # ------------------------------------------------------- queue overload

    def _overload_begin(self) -> None:
        if self._ifq_caps is not None:
            return  # overlapping windows: already clamped
        caps = []
        clamp = self.plan.overload_capacity
        for node in self.network.nodes:
            ifq = node.mac.ifq
            caps.append(ifq.capacity)
            ifq.set_capacity(min(ifq.capacity, clamp))
        self._ifq_caps = caps

    def _overload_end(self) -> None:
        caps = self._ifq_caps
        if caps is None:
            return
        # Still inside another overlapping window? Keep the clamp.
        now = self.sim.now
        for start, stop in self.plan.overload_windows:
            if start < now < stop:
                return
        for node, cap in zip(self.network.nodes, caps):
            node.mac.ifq.set_capacity(cap)
        self._ifq_caps = None

    # ------------------------------------------- channel fault-hook interface

    def _in_window(self, windows, now: float) -> bool:
        for w in windows:
            if w[0] <= now < w[1]:
                return True
        return False

    def _active_partition(self, now: float) -> Optional[float]:
        for start, stop, x_split in self.plan.partitions:
            if start <= now < stop:
                return x_split
        return None

    def filter_targets_array(self, src_id: int, ids, now: float):
        """Channel callback: mask fan-out entries eaten by active faults.

        Called once per transmission with the fan-out's receiver-id
        array; returns a keep-mask, or ``None`` when no fault is active
        (keep everything, so a no-op plan cannot perturb arrival
        ordering). The checks run in receiver order and the link-loss
        RNG is drawn once per surviving candidate; both arrival engines
        call this one filter, so a plan is bit-reproducible across them.
        """
        stats = self.stats
        plan = self.plan
        n = ids.shape[0]
        if plan.blackouts and self._in_window(plan.blackouts, now):
            stats.blackout_drops += n
            return np.zeros(n, dtype=bool)
        x_split = self._active_partition(now) if plan.partitions else None
        loss = plan.link_loss
        down = self._down
        if x_split is None and loss == 0.0 and not any(down):
            return None
        if x_split is not None:
            positions = self.network.mobility.positions(now)
            src_side = positions[src_id, 0] < x_split
        rng = self._link_rng
        keep = np.ones(n, dtype=bool)
        for k, nid in enumerate(ids.tolist()):
            if down[nid]:
                stats.down_rx_drops += 1
                keep[k] = False
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

    def node_down(self, node_id: int) -> bool:
        """Whether *node_id* is currently crashed."""
        return self._down[node_id]

    def apply(self, summary, duration: float) -> None:
        """Fold fault accounting into a finished metrics summary."""
        stats = self.stats
        downtime = sum(stats.recovery_latencies)
        for i, down in enumerate(self._down):
            if down:
                downtime += duration - self._down_since[i]
        lats = stats.recovery_latencies
        summary.fault_crashes = stats.crashes
        summary.fault_downtime = downtime
        summary.fault_recovery_latency = sum(lats) / len(lats) if lats else 0.0
        summary.fault_packets_lost = stats.packets_lost + sum(
            node.radio.stats.down_tx_drops for node in self.network.nodes
        )
        if stats.crash_queue_drops:
            reasons = dict(summary.drops_by_reason)
            reasons["crash_queue"] = (
                reasons.get("crash_queue", 0) + stats.crash_queue_drops
            )
            summary.drops_by_reason = reasons
