"""Radio propagation models.

Defaults reproduce the ns-2 CMU wireless PHY used by the paper: a
914 MHz Lucent WaveLAN radio with two-ray-ground propagation calibrated
so the receive threshold falls at **250 m** and the carrier-sense
threshold at **550 m**.

Model selection mirrors ns-2: two-ray ground uses free-space attenuation
(``1/d²``) below the crossover distance and ground-reflection
(``1/d⁴``) above it.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.errors import ConfigurationError
from ..core.units import SPEED_OF_LIGHT

__all__ = [
    "PropagationModel",
    "TwoRayGround",
    "UnitDisk",
    "WAVELAN_914MHZ",
    "RadioParams",
]


class PropagationModel:
    """Maps (tx power, distance) to received power in watts."""

    def rx_power(self, tx_power: float, distance: float) -> float:
        """Received power (W) at *distance* meters for *tx_power* watts."""
        raise NotImplementedError

    def rx_power_d2_vec(self, tx_power: float, d2) -> np.ndarray:
        """Vectorized received power from *squared* distances.

        The channel's fan-out works from ``dx² + dy²`` directly; every
        model here needs only even powers of distance, so none takes a
        square root.
        """
        raise NotImplementedError

    def rx_power_d2(self, tx_power: float, d2: float) -> float:
        """Scalar counterpart of :meth:`rx_power_d2_vec`.

        The channel uses this below its vectorization threshold, where
        a Python loop beats NumPy dispatch. Implementations must
        evaluate the exact same float64 expression as the vector form
        so results do not depend on which path ran.
        """
        raise NotImplementedError

    def range_for_threshold(self, tx_power: float, threshold: float) -> float:
        """Largest distance at which rx power still meets *threshold*.

        Solved by bisection against :meth:`rx_power`, which is assumed
        monotone non-increasing in distance.
        """
        if self.rx_power(tx_power, 1.0) < threshold:
            return 0.0
        lo, hi = 1.0, 10.0
        while self.rx_power(tx_power, hi) >= threshold:
            hi *= 2.0
            if hi > 1e7:  # pragma: no cover - absurd configuration
                raise ConfigurationError("threshold never reached within 10^7 m")
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if self.rx_power(tx_power, mid) >= threshold:
                lo = mid
            else:
                hi = mid
        return lo


class TwoRayGround(PropagationModel):
    """Two-ray ground-reflection model with free-space crossover.

    Below the crossover distance ``dc = 4π·ht·hr/λ`` the direct path
    dominates and Friis applies, ``Pr = Pt·Gt·Gr·λ² / ((4π·d)²·L)``;
    above it, ``Pr = Pt·Gt·Gr·ht²·hr² / (d⁴·L)``.
    """

    def __init__(
        self,
        frequency: float = 914e6,
        height_tx: float = 1.5,
        height_rx: float = 1.5,
        gain_tx: float = 1.0,
        gain_rx: float = 1.0,
        system_loss: float = 1.0,
    ):
        if frequency <= 0:
            raise ConfigurationError(f"frequency must be > 0, got {frequency}")
        if system_loss < 1.0:
            raise ConfigurationError(f"system loss must be >= 1, got {system_loss}")
        if height_tx <= 0 or height_rx <= 0:
            raise ConfigurationError("antenna heights must be > 0")
        self.wavelength = SPEED_OF_LIGHT / frequency
        self.height_tx = height_tx
        self.height_rx = height_rx
        self.gain_tx = gain_tx
        self.gain_rx = gain_rx
        self.system_loss = system_loss
        self.crossover = 4.0 * math.pi * height_tx * height_rx / self.wavelength
        # Pr = tx * coeff / d² below the crossover and tx * coeff / d⁴
        # beyond it; hoisted so the vector path is one multiply and one
        # divide per element.
        self._d2_coeff = (
            gain_tx * gain_rx * self.wavelength * self.wavelength
            / (16.0 * math.pi * math.pi * system_loss)
        )
        self._d4_coeff = gain_tx * gain_rx * (height_tx * height_rx) ** 2 / system_loss
        self._cross2 = self.crossover * self.crossover

    def rx_power(self, tx_power: float, distance: float) -> float:
        if distance <= 0:
            return tx_power
        if distance < self.crossover:
            lam = self.wavelength
            return (
                tx_power
                * self.gain_tx
                * self.gain_rx
                * lam
                * lam
                / ((4.0 * math.pi * distance) ** 2 * self.system_loss)
            )
        h2 = (self.height_tx * self.height_rx) ** 2
        return (
            tx_power * self.gain_tx * self.gain_rx * h2
            / (distance**4 * self.system_loss)
        )

    def rx_power_vec(self, tx_power: float, distances):
        """:meth:`rx_power` over a NumPy array of distances."""
        d = np.asarray(distances, dtype=np.float64)
        return self.rx_power_d2_vec(tx_power, d * d)

    def rx_power_d2_vec(self, tx_power: float, d2):
        d2 = np.asarray(d2, dtype=np.float64)
        if d2.size and d2.min() > 0.0:
            # No co-located pair (the channel excludes the source
            # before calling): the d2 <= 0 guard below selects nothing,
            # so the same two quotients go through one ``where``.
            return np.where(
                d2 < self._cross2,
                (tx_power * self._d2_coeff) / d2,
                (tx_power * self._d4_coeff) / (d2 * d2),
            )
        safe = np.where(d2 > 0.0, d2, 1.0)
        friis = (tx_power * self._d2_coeff) / safe
        tworay = (tx_power * self._d4_coeff) / (safe * safe)
        out = np.where(d2 < self._cross2, friis, tworay)
        out[d2 <= 0.0] = tx_power
        return out

    def rx_power_d2(self, tx_power: float, d2: float) -> float:
        if d2 <= 0.0:
            return tx_power
        if d2 < self._cross2:
            return (tx_power * self._d2_coeff) / d2
        return (tx_power * self._d4_coeff) / (d2 * d2)


class UnitDisk(PropagationModel):
    """Ideal disk model for tests: full power in range, zero beyond.

    ``rx_power`` returns the transmit power inside ``radius`` and 0
    outside, so any positive receive threshold yields a sharp disk.
    """

    def __init__(self, radius: float = 250.0):
        if radius <= 0:
            raise ConfigurationError(f"radius must be > 0, got {radius}")
        self.radius = radius

    def rx_power(self, tx_power: float, distance: float) -> float:
        return tx_power if distance <= self.radius else 0.0

    def rx_power_vec(self, tx_power: float, distances):
        d = np.asarray(distances, dtype=np.float64)
        return np.where(d <= self.radius, tx_power, 0.0)

    def rx_power_d2_vec(self, tx_power: float, d2):
        d2 = np.asarray(d2, dtype=np.float64)
        return np.where(d2 <= self.radius * self.radius, tx_power, 0.0)

    def rx_power_d2(self, tx_power: float, d2: float) -> float:
        return tx_power if d2 <= self.radius * self.radius else 0.0

    def range_for_threshold(self, tx_power: float, threshold: float) -> float:
        return self.radius if tx_power >= threshold else 0.0


class RadioParams:
    """Radio constants shared by all nodes.

    The defaults are the ns-2 WaveLAN values: 2 Mb/s bit rate, 0.2818 W
    transmit power, receive threshold 3.652e-10 W (250 m under two-ray
    ground), carrier-sense threshold 1.559e-11 W (550 m), 10 dB capture.
    """

    def __init__(
        self,
        bitrate: float = 2e6,
        tx_power: float = 0.28183815,
        rx_threshold: float = 3.652e-10,
        cs_threshold: float = 1.559e-11,
        capture_ratio: float = 10.0,
    ):
        if bitrate <= 0:
            raise ConfigurationError(f"bitrate must be > 0, got {bitrate}")
        if tx_power <= 0:
            raise ConfigurationError(f"tx_power must be > 0, got {tx_power}")
        if rx_threshold <= 0 or cs_threshold <= 0:
            raise ConfigurationError("thresholds must be > 0")
        if cs_threshold > rx_threshold:
            raise ConfigurationError(
                "carrier-sense threshold must not exceed receive threshold"
            )
        if capture_ratio < 1.0:
            raise ConfigurationError(f"capture ratio must be >= 1, got {capture_ratio}")
        self.bitrate = bitrate
        self.tx_power = tx_power
        self.rx_threshold = rx_threshold
        self.cs_threshold = cs_threshold
        self.capture_ratio = capture_ratio

    def rx_range(self, model: PropagationModel) -> float:
        """Nominal receive range under *model* (m)."""
        return model.range_for_threshold(self.tx_power, self.rx_threshold)

    def cs_range(self, model: PropagationModel) -> float:
        """Carrier-sense (interference) range under *model* (m)."""
        return model.range_for_threshold(self.tx_power, self.cs_threshold)


#: The paper's radio: ns-2 defaults giving 250 m / 550 m under TwoRayGround.
WAVELAN_914MHZ = RadioParams()
