"""PAODV — Preemptive AODV (Boukerche's preemptive-route-maintenance variant).

AODV repairs routes only after they break: data is lost between the
physical break and the RERR/re-discovery. PAODV acts *before* the
break: every node monitors the received signal power of data frames
from its upstream neighbor; when it drops below a **preemption
threshold** (the power at ~0.95 of nominal range — the node pair is
drifting apart), the node sends a path-warning control message back to
the flow's source, which launches a fresh route discovery while the old
route still works. The destination answers with a higher sequence
number, so the new (hopefully more robust) route replaces the old one
seamlessly.

Cost: one small warning per degrading link (rate-limited) plus the
extra discovery — the overhead/delivery trade the F9 ablation measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..net.packet import Packet
from ..phy.propagation import TwoRayGround, WAVELAN_914MHZ
from .aodv import Aodv, _Pending, ring_traversal_time

__all__ = ["Paodv", "Pwarn", "default_preempt_threshold"]

PWARN_SIZE = 12
#: Minimum spacing between warnings for the same (source, destination).
WARN_INTERVAL = 3.0
#: Minimum spacing between preemptive discoveries per destination at the
#: source (a discovery flood is the expensive part of preemption).
PREEMPT_DISCOVERY_INTERVAL = 5.0
#: Fraction of nominal range at which preemption triggers. Links in the
#: outer 5 % of the radio range are genuinely about to break under
#: 20 m/s mobility (~1 s of margin); triggering earlier floods the
#: network with refresh discoveries for links that would have survived.
PREEMPT_RANGE_RATIO = 0.95


def default_preempt_threshold(
    propagation=None, params=None, ratio: float = PREEMPT_RANGE_RATIO
) -> float:
    """RX power (W) at ``ratio`` x nominal range — the warning trigger.

    Computed from the same propagation model the scenario uses, so the
    threshold tracks whatever radio is configured.
    """
    propagation = propagation if propagation is not None else TwoRayGround()
    params = params if params is not None else WAVELAN_914MHZ
    rx_range = params.rx_range(propagation)
    return propagation.rx_power(params.tx_power, ratio * rx_range)


@dataclass
class Pwarn:
    """Path-warning: the link feeding *victim* is about to break."""

    flow_src: int
    flow_dst: int
    victim: int  # node that detected the weak upstream link


class Paodv(Aodv):
    """Preemptive AODV agent.

    Parameters
    ----------
    preempt_threshold:
        RX power (W) below which a data frame signals a degrading link.
        Defaults to the power at 95 % of nominal range under the
        standard two-ray radio.
    """

    NAME = "paodv"

    def __init__(self, sim, node_id, mac, rng, preempt_threshold: float = None,
                 hello_interval=None, local_repair: bool = False):
        super().__init__(sim, node_id, mac, rng, hello_interval=hello_interval,
                         local_repair=local_repair)
        self.preempt_threshold = (
            preempt_threshold
            if preempt_threshold is not None
            else default_preempt_threshold()
        )
        self._last_warned: Dict[Tuple[int, int], float] = {}
        self._last_preempt: Dict[int, float] = {}
        #: Preemptive discoveries launched (ablation metric).
        self.preemptive_discoveries = 0
        #: Warnings sent (ablation metric).
        self.warnings_sent = 0

    # ----------------------------------------------------------- detection

    def _check_preempt(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        if rx_power >= self.preempt_threshold:
            return
        if packet.src == self.addr:
            return  # we are the source; we'd warn ourselves
        key = (packet.src, packet.dst)
        now = self.sim.now
        if now - self._last_warned.get(key, -WARN_INTERVAL) < WARN_INTERVAL:
            return
        route_back = self._route(packet.src)
        if route_back is None:
            return  # no reverse path for the warning
        self._last_warned[key] = now
        self.warnings_sent += 1
        warn = Pwarn(flow_src=packet.src, flow_dst=packet.dst, victim=self.addr)
        pkt = self.make_control(warn, PWARN_SIZE, dst=packet.src, ttl=32)
        self.send_control(pkt, route_back.next_hop)

    def on_data_to_forward(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        self._check_preempt(packet, prev_hop, rx_power)
        super().on_data_to_forward(packet, prev_hop, rx_power)

    def on_data_arrived(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        super().on_data_arrived(packet, prev_hop, rx_power)
        self._check_preempt(packet, prev_hop, rx_power)

    # ------------------------------------------------------------- control

    def on_control(self, packet: Packet, prev_hop: int, rx_power: float) -> None:
        msg = packet.payload
        if isinstance(msg, Pwarn):
            self._on_pwarn(packet, msg)
            return
        super().on_control(packet, prev_hop, rx_power)

    def _on_pwarn(self, packet: Packet, msg: Pwarn) -> None:
        if msg.flow_src != self.addr:
            # In transit: relay toward the flow source.
            route_back = self._route(msg.flow_src)
            if route_back is not None:
                fwd = self.make_control(msg, PWARN_SIZE, dst=msg.flow_src, ttl=32)
                self.send_control(fwd, route_back.next_hop)
            return
        # We are the source: refresh the route before it breaks.
        if msg.flow_dst in self._pending:
            return  # already discovering
        now = self.sim.now
        if now - self._last_preempt.get(msg.flow_dst, -1e9) < PREEMPT_DISCOVERY_INTERVAL:
            return  # recently refreshed; don't flood per warning
        self._last_preempt[msg.flow_dst] = now
        self.preemptive_discoveries += 1
        self._preemptive_discovery(msg.flow_dst)

    def _preemptive_discovery(self, dst: int) -> None:
        """One-shot RREQ that does not disturb the still-valid route."""
        route = self.table.get(dst)
        ttl = min((route.hops if route else 0) + 2, 30)
        self._send_rreq(dst, max(ttl, 3))
        # No retry chain: if the preemptive attempt fails, normal AODV
        # recovery handles the eventual break.
        timer = self.sim.schedule(
            ring_traversal_time(ttl), self._preempt_timeout, dst
        )
        self._pending[dst] = _Pending(retries=0, ttl=ttl, timer=timer)

    def _preempt_timeout(self, dst: int) -> None:
        self._pending.pop(dst, None)
