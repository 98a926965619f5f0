"""Per-node radio energy accounting (ns-2 ``EnergyModel`` equivalent).

Energy is drained at three electrical power levels — transmitting,
receiving/decoding, and idle listening — multiplied by the time the
radio spent in each state. The defaults are the WaveLAN measurement
numbers commonly used with ns-2 (Feeney & Nilsson): 660 mW tx, 395 mW
rx, 35 mW idle.

Because the radio already tracks its TX and RX airtimes, the accountant
is a pure end-of-run computation: no per-event cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.errors import ConfigurationError
from ..net.stack import Network

__all__ = ["EnergyParams", "EnergyReport", "account_energy"]


@dataclass(frozen=True)
class EnergyParams:
    """Electrical power draw per radio state (watts)."""

    tx_power_w: float = 0.660
    rx_power_w: float = 0.395
    idle_power_w: float = 0.035

    def __post_init__(self) -> None:
        if min(self.tx_power_w, self.rx_power_w, self.idle_power_w) < 0:
            raise ConfigurationError("power draws must be >= 0")
        if self.tx_power_w < self.rx_power_w:
            raise ConfigurationError("transmit draw below receive draw is unphysical")


@dataclass
class EnergyReport:
    """Network-wide energy summary for one run."""

    duration: float
    per_node_joules: List[float]
    tx_joules: float
    rx_joules: float
    idle_joules: float

    @property
    def total_joules(self) -> float:
        return self.tx_joules + self.rx_joules + self.idle_joules

    def joules_per_delivered(self, delivered: int) -> float:
        """Energy cost per successfully delivered data packet."""
        return self.total_joules / delivered if delivered else float("inf")


def account_energy(
    network: Network, duration: float, params: EnergyParams = EnergyParams()
) -> EnergyReport:
    """Compute the energy report from the radios' airtime counters."""
    if duration <= 0:
        raise ConfigurationError("duration must be > 0")
    per_node: List[float] = []
    tx_total = rx_total = idle_total = 0.0
    for node in network.nodes:
        s = node.radio.stats
        tx_t = min(s.airtime_tx, duration)
        rx_t = min(s.airtime_rx, duration - tx_t)
        idle_t = max(duration - tx_t - rx_t, 0.0)
        tx_j = tx_t * params.tx_power_w
        rx_j = rx_t * params.rx_power_w
        idle_j = idle_t * params.idle_power_w
        per_node.append(tx_j + rx_j + idle_j)
        tx_total += tx_j
        rx_total += rx_j
        idle_total += idle_j
    return EnergyReport(
        duration=duration,
        per_node_joules=per_node,
        tx_joules=tx_total,
        rx_joules=rx_total,
        idle_joules=idle_total,
    )
