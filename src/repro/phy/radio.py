"""Per-node radio interface: transmit/receive state machine.

The radios of one channel share an :class:`ArrivalLedger`, on which the
channel resolves every reception with the ns-2 wireless PHY rules:

* **Half duplex** — anything arriving while this radio transmits is lost.
* **Carrier sense** — arrivals with power ≥ the carrier-sense threshold
  mark the medium busy even when too weak to decode.
* **Capture** — while decoding a frame, a new arrival more than
  ``capture_ratio`` weaker is ignored (the decode survives); otherwise
  both frames are corrupted (collision). No mid-reception capture
  switch, matching ns-2.

The MAC above must provide three callbacks:
``on_frame_received(frame, rx_power)``, ``on_transmit_done(frame)``, and
``medium_changed()`` (invoked whenever the busy/idle state may have
flipped, so the MAC can re-evaluate deferral/backoff).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.errors import SimulationError
from ..core.simulator import Simulator
from ..mac.frames import Frame
from .propagation import RadioParams

__all__ = ["ArrivalLedger", "Radio", "RadioStats"]


class RadioStats:
    """Per-radio PHY counters."""

    __slots__ = (
        "frames_sent",
        "frames_received",
        "collisions",
        "capture_ignored",
        "halfduplex_drops",
        "airtime_tx",
        "airtime_rx",
        "down_tx_drops",
        "down_rx_drops",
    )

    def __init__(self) -> None:
        self.frames_sent = 0
        self.frames_received = 0
        self.collisions = 0
        self.capture_ignored = 0
        self.halfduplex_drops = 0
        self.airtime_tx = 0.0
        #: Time spent actively decoding arrivals (successful or not).
        self.airtime_rx = 0.0
        #: Frames swallowed because this radio was powered off (faults).
        self.down_tx_drops = 0
        self.down_rx_drops = 0


class ArrivalLedger:
    """Array-backed interference state of one channel's radios.

    The channel creates one ledger and joins every radio to it in
    ``Channel.attach``. Instead of one arrival object per (transmission,
    receiver) pair it keeps per-node vectors — overlap counts, strongest
    in-flight power, decode power — and resolves a whole transmission
    fan-out with NumPy gathers and scatters. The brute-force model in
    ``tests/phy/test_phy_oracle.py`` is the reference these rules are
    checked against.

    Stat deltas (collisions, capture, half-duplex, down-rx) accumulate
    in int arrays and are folded into each radio's :class:`RadioStats`
    by :meth:`flush` before metrics are read. ``airtime_rx`` stays a
    per-radio scalar updated at decode start, because the energy model
    reads it mid-run.
    """

    __slots__ = (
        "counts",
        "strongest",
        "txing",
        "down",
        "rx_power",
        "wants_medium",
        "d_collisions",
        "d_capture",
        "d_halfduplex",
        "d_down_rx",
        "active",
        "n_txing",
        "n_down",
    )

    def __init__(self, n: int):
        #: Overlapping in-flight arrivals per radio (carrier sense).
        self.counts = np.zeros(n, dtype=np.int32)
        #: Strongest in-flight arrival power per radio (capture floor).
        self.strongest = np.zeros(n, dtype=np.float64)
        #: Mirror of each radio's ``_tx_end is not None`` (half duplex).
        self.txing = np.zeros(n, dtype=bool)
        #: Mirror of each radio's ``_down`` flag (crash faults).
        self.down = np.zeros(n, dtype=bool)
        #: Power of the frame being decoded; 0.0 when not decoding.
        self.rx_power = np.zeros(n, dtype=np.float64)
        #: Whether the MAC above is parked in a contention state and
        #: needs ``medium_changed`` edges (DCF states 1..3). Gating on
        #: this skips only calls that are provably no-ops.
        self.wants_medium = np.zeros(n, dtype=bool)
        self.d_collisions = np.zeros(n, dtype=np.int64)
        self.d_capture = np.zeros(n, dtype=np.int64)
        self.d_halfduplex = np.zeros(n, dtype=np.int64)
        self.d_down_rx = np.zeros(n, dtype=np.int64)
        #: Transmissions currently on the air (``_TxBatch`` instances);
        #: used to recompute ``strongest`` when one of them ends.
        self.active: list = []
        #: Scalar twins of ``txing.sum()`` / ``down.sum()``: the quiet-
        #: channel fast path tests them without touching the arrays.
        self.n_txing = 0
        self.n_down = 0

    def flush(self, radios) -> None:
        """Fold the accumulated stat deltas into per-radio counters."""
        cols = self.d_collisions
        caps = self.d_capture
        half = self.d_halfduplex
        dwn = self.d_down_rx
        touched = np.nonzero(cols | caps | half | dwn)[0]
        for i in touched.tolist():
            radio = radios[i]
            if radio is None:
                continue
            stats = radio.stats
            stats.collisions += int(cols[i])
            stats.capture_ignored += int(caps[i])
            stats.halfduplex_drops += int(half[i])
            stats.down_rx_drops += int(dwn[i])
        cols[touched] = 0
        caps[touched] = 0
        half[touched] = 0
        dwn[touched] = 0


class Radio:
    """Radio NIC of one node.

    Reception state lives in the channel's :class:`ArrivalLedger`,
    which ``Channel.attach`` joins this radio to; the channel's fan-out
    and end-of-frame passes apply the reception rules.

    Parameters
    ----------
    sim:
        The owning simulator.
    node_id:
        This node's address (index into the channel's radio table).
    params:
        Shared :class:`RadioParams` (bitrate, power, thresholds).
    """

    def __init__(self, sim: Simulator, node_id: int, params: RadioParams):
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.channel = None  # set by Channel.attach
        self.mac = None  # set by the MAC layer
        self.stats = RadioStats()
        #: Powered off by fault injection: mute and deaf until power_on.
        self._down = False
        self._tx_end: Optional[float] = None
        #: The channel's shared ArrivalLedger (set by Channel.attach).
        self._led: Optional[ArrivalLedger] = None
        #: Decode state: the frame being decoded and whether
        #: interference has already corrupted it.
        self._rx_frame: Optional[Frame] = None
        self._rx_corrupt = False
        # Flight recorder with PHY verdicts requested, frozen at
        # construction.
        flight = sim.flight
        self._flight_phy = (
            flight if flight is not None and flight.trace else None
        )

    # -------------------------------------------------------------- faults

    @property
    def is_down(self) -> bool:
        """Whether fault injection has powered this radio off."""
        return self._down

    def power_off(self) -> None:
        """Crash fault: stop hearing and stop reaching the channel.

        Any reception in progress is corrupted (the decode dies with the
        node); an in-flight transmission is left to complete — its energy
        is already on the air. The MAC above keeps running against the
        dead radio so protocol timers survive into recovery.
        """
        if self._down:
            return
        self._down = True
        led = self._led
        led.down[self.node_id] = True
        led.n_down += 1
        if self._rx_frame is not None:
            # The interference power of the dying decode stays in the
            # ledger (the energy is still on the air); only the decode
            # itself is lost.
            self._rx_frame = None
            led.rx_power[self.node_id] = 0.0

    def power_on(self) -> None:
        """Recover from a crash fault: resume normal PHY behaviour."""
        if not self._down:
            return
        self._down = False
        led = self._led
        led.down[self.node_id] = False
        led.n_down -= 1

    # ------------------------------------------------------------- queries

    @property
    def is_transmitting(self) -> bool:
        return self._tx_end is not None

    def carrier_busy(self) -> bool:
        """Physical carrier sense: transmitting or detectable energy."""
        return self._tx_end is not None or bool(self._led.counts[self.node_id])

    def busy_until(self) -> float:
        """Latest known end of the current busy period (now if idle)."""
        t = self.sim.now
        if self._tx_end is not None:
            t = max(t, self._tx_end)
        nid = self.node_id
        for batch in self._led.active:
            if batch.end > t and nid in batch.added_list:
                t = batch.end
        return t

    def set_mac_waiting(self, waiting: bool) -> None:
        """MAC hint: it is parked in a contention state and needs
        ``medium_changed`` edges (the channel skips the calls that
        would provably no-op)."""
        self._led.wants_medium[self.node_id] = waiting

    # -------------------------------------------------------------- sending

    def transmit(self, frame: Frame) -> float:
        """Put *frame* on the air; returns its airtime in seconds."""
        if self.channel is None:
            raise SimulationError(f"radio {self.node_id} not attached to a channel")
        if self._tx_end is not None:
            raise SimulationError(
                f"radio {self.node_id} asked to transmit while transmitting"
            )
        led = self._led
        duration = frame.airtime(self.params.bitrate)
        self._tx_end = self.sim.now + duration
        # Half duplex, and it survives a crash: should a powered-off
        # radio recover mid-"transmission", arrivals are still lost.
        led.txing[self.node_id] = True
        led.n_txing += 1
        if self._down:
            # Powered off: the frame goes nowhere, but the MAC's transmit
            # cycle completes normally so its state machine stays sound.
            self.stats.down_tx_drops += 1
            self.sim.schedule(duration, self._transmit_done, frame)
            return duration
        # Transmitting stomps any reception in progress.
        if self._rx_frame is not None:
            self._rx_frame = None
            led.rx_power[self.node_id] = 0.0
            self.stats.halfduplex_drops += 1
        self.stats.frames_sent += 1
        self.stats.airtime_tx += duration
        if self._flight_phy is not None:
            self._fnote("phy_tx", frame)
        self.channel.transmit(self, frame, duration)
        # No tx-done event here: the channel's end-of-transmission event
        # calls _transmit_done after ending the receivers' arrivals,
        # folding two same-instant heap entries into one.
        return duration

    def _transmit_done(self, frame: Frame) -> None:
        self._tx_end = None
        led = self._led
        led.txing[self.node_id] = False
        led.n_txing -= 1
        if self.mac is not None:
            self.mac.on_transmit_done(frame)
            self.mac.medium_changed()

    def _fnote(self, ev: str, frame: Frame) -> None:
        """Trace a PHY event at this radio for the data packet *frame*
        carries.

        Control frames (RTS/CTS/ACK, routing floods) have no per-packet
        identity worth tracing; only DATA frames wrapping measured data
        packets land in the flight trace.
        """
        pkt = frame.payload
        if pkt is not None and pkt.is_data:
            self._flight_phy.note(ev, pkt.origin_uid, self.node_id)
