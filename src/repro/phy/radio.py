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
    """Array-backed interference and decode state of one channel's radios.

    The channel creates one ledger and joins every radio to it in
    ``Channel.attach``. Instead of one arrival object per (transmission,
    receiver) pair it keeps per-node vectors — overlap counts, strongest
    in-flight power, the frame being decoded — and resolves a whole
    transmission fan-out with NumPy gathers and scatters. The brute-force
    model in ``tests/phy/test_phy_oracle.py`` is the reference these
    rules are checked against.

    Stat deltas (receptions, receive airtime, collisions, capture,
    half-duplex, down-rx) accumulate in arrays and are folded into each
    radio's :class:`RadioStats` by :meth:`flush` before metrics are read.
    """

    __slots__ = (
        "counts",
        "strongest",
        "txing",
        "down",
        "rx_power",
        "rx_tx",
        "rx_corrupt",
        "wants_medium",
        "d_frames_received",
        "d_airtime_rx",
        "d_collisions",
        "d_capture",
        "d_halfduplex",
        "d_down_rx",
        "active",
        "epoch",
        "n_txing",
        "n_down",
        "n_waiting",
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
        #: Decode state. ``rx_power`` is the power of the frame being
        #: decoded and ``rx_tx`` its transmission's ``epoch`` stamp;
        #: both read 0 when the radio is not decoding. ``rx_corrupt``
        #: marks a decode that interference has already killed; it is
        #: False whenever the radio is not decoding.
        self.rx_power = np.zeros(n, dtype=np.float64)
        self.rx_tx = np.zeros(n, dtype=np.int64)
        self.rx_corrupt = np.zeros(n, dtype=bool)
        #: Whether the MAC above is parked in a contention state and
        #: needs ``medium_changed`` edges (DCF states 1..3). Gating on
        #: this skips only calls that are provably no-ops.
        self.wants_medium = np.zeros(n, dtype=bool)
        self.d_frames_received = np.zeros(n, dtype=np.int64)
        self.d_airtime_rx = np.zeros(n, dtype=np.float64)
        self.d_collisions = np.zeros(n, dtype=np.int64)
        self.d_capture = np.zeros(n, dtype=np.int64)
        self.d_halfduplex = np.zeros(n, dtype=np.int64)
        self.d_down_rx = np.zeros(n, dtype=np.int64)
        #: Transmissions currently on the air (``_TxBatch`` instances);
        #: used to recompute ``strongest`` when one of them ends.
        self.active: list = []
        #: Bumped by every fan-out (which stamps its transmission with
        #: the new value) and by every ``power_off``/``power_on``. A
        #: transmission that finds the ledger still at its own stamp
        #: when it ends had the air to itself throughout.
        self.epoch = 0
        #: Scalar twins of ``txing.sum()`` / ``down.sum()`` /
        #: ``wants_medium.sum()``: the fast paths test them without
        #: touching the arrays.
        self.n_txing = 0
        self.n_down = 0
        self.n_waiting = 0

    def flush(self, radios) -> None:
        """Fold the accumulated stat deltas into per-radio counters.

        Receive airtime is summed per radio in arrival order, exactly as
        a per-radio float would be, so a single flush at the end of a
        run reproduces it to the bit.
        """
        recv = self.d_frames_received
        air = self.d_airtime_rx
        cols = self.d_collisions
        caps = self.d_capture
        half = self.d_halfduplex
        dwn = self.d_down_rx
        touched = np.flatnonzero((air != 0.0) | (recv | cols | caps | half | dwn))
        for i in touched.tolist():
            radio = radios[i]
            if radio is None:
                continue
            stats = radio.stats
            stats.frames_received += int(recv[i])
            stats.airtime_rx += float(air[i])
            stats.collisions += int(cols[i])
            stats.capture_ignored += int(caps[i])
            stats.halfduplex_drops += int(half[i])
            stats.down_rx_drops += int(dwn[i])
        for col in (recv, air, cols, caps, half, dwn):
            col[touched] = 0


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
        #: The channel's shared ArrivalLedger (set by Channel.attach),
        #: which also holds this radio's decode state.
        self._led: Optional[ArrivalLedger] = None
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
        nid = self.node_id
        led.down[nid] = True
        led.n_down += 1
        led.epoch += 1
        # The interference power of a dying decode stays in the ledger
        # (the energy is still on the air); only the decode itself is
        # lost.
        _drop_decode(led, nid)

    def power_on(self) -> None:
        """Recover from a crash fault: resume normal PHY behaviour."""
        if not self._down:
            return
        self._down = False
        led = self._led
        led.down[self.node_id] = False
        led.n_down -= 1
        led.epoch += 1

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
        """MAC hint, sent when it flips: the MAC is parked in a
        contention state and needs ``medium_changed`` edges (the channel
        skips the calls that would provably no-op)."""
        led = self._led
        led.wants_medium[self.node_id] = waiting
        led.n_waiting += 1 if waiting else -1

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
        if _drop_decode(led, self.node_id):
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
        identity worth tracing; only DATA frames wrapping data
        packets land in the flight trace.
        """
        pkt = frame.payload
        if pkt is not None and pkt.is_data:
            self._flight_phy.note(ev, pkt.origin_uid, self.node_id)


def _drop_decode(led: ArrivalLedger, nid: int) -> bool:
    """End radio *nid*'s decode, if any, without a delivery; returns
    whether there was one."""
    if not led.rx_tx[nid]:
        return False
    led.rx_power[nid] = 0.0
    led.rx_tx[nid] = 0
    led.rx_corrupt[nid] = False
    return True
