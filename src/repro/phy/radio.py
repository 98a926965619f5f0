"""Per-node radio interface: transmit/receive state machine.

The radio implements the ns-2 wireless PHY reception rules:

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

from typing import List, Optional

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


class _Arrival:
    """One in-flight frame as seen by this receiver."""

    __slots__ = ("frame", "power", "end", "corrupted")

    def __init__(self, frame: Frame, power: float, end: float):
        self.frame = frame
        self.power = power
        self.end = end
        self.corrupted = False


class ArrivalLedger:
    """Array-backed interference state for the batched arrival engine.

    One ledger is shared by every radio on a channel running in batched
    mode (see ``Channel.enable_batched``). Instead of one ``_Arrival``
    object per (transmission, receiver) pair, the channel keeps per-node
    vectors — overlap counts, strongest in-flight power, decode power —
    and resolves a whole transmission fan-out with NumPy gathers and
    scatters. The per-receiver reception *rules* are unchanged; only
    their evaluation is batched, so outcomes are bit-identical with the
    per-pair path (the engine of ``mac="ideal"`` and PHY-traced runs).

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
        # Threshold constants, flattened out of RadioParams: the arrival
        # path reads them once per fanned-out frame.
        self._cs_threshold = params.cs_threshold
        self._rx_threshold = params.rx_threshold
        self._capture_ratio = params.capture_ratio
        self._arrivals: List[_Arrival] = []
        #: Retired arrival entries, recycled by begin_arrival. Bounded
        #: by the peak number of concurrent arrivals at this radio.
        self._free: List[_Arrival] = []
        #: Powered off by fault injection: mute and deaf until power_on.
        self._down = False
        self._rx: Optional[_Arrival] = None
        self._tx_end: Optional[float] = None
        #: Shared ArrivalLedger when the channel runs the batched
        #: arrival engine; None selects the per-pair path.
        self._led: Optional[ArrivalLedger] = None
        #: Batched-mode decode state (the ledger's object-free analogue
        #: of ``_rx``): the frame being decoded and whether interference
        #: has already corrupted it.
        self._rx_frame: Optional[Frame] = None
        self._rx_corrupt = False
        # Flight recorder with PHY verdicts requested, frozen at
        # construction. Only the per-pair arrival path emits verdicts
        # (the builder selects it when trace_phy is on).
        flight = sim.flight
        self._flight_phy = (
            flight if flight is not None and flight.trace_phy else None
        )
        self.perf = sim.perf

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
        if self._rx is not None:
            self._rx.corrupted = True
            self._rx = None
        led = self._led
        if led is not None:
            led.down[self.node_id] = True
            led.n_down += 1
            if self._rx_frame is not None:
                # The interference power of the dying decode stays in
                # the ledger (the energy is still on the air); only the
                # decode itself is lost, as in the per-pair path.
                self._rx_frame = None
                led.rx_power[self.node_id] = 0.0

    def power_on(self) -> None:
        """Recover from a crash fault: resume normal PHY behaviour."""
        if not self._down:
            return
        self._down = False
        led = self._led
        if led is not None:
            led.down[self.node_id] = False
            led.n_down -= 1

    # ------------------------------------------------------------- queries

    @property
    def is_transmitting(self) -> bool:
        return self._tx_end is not None

    def carrier_busy(self) -> bool:
        """Physical carrier sense: transmitting or detectable energy."""
        if self._tx_end is not None:
            return True
        led = self._led
        if led is not None:
            return led.counts[self.node_id] > 0
        return bool(self._arrivals)

    def active_arrival_count(self) -> int:
        """In-flight arrivals currently detected at this radio."""
        led = self._led
        if led is not None:
            return int(led.counts[self.node_id])
        return len(self._arrivals)

    def busy_until(self) -> float:
        """Latest known end of the current busy period (now if idle)."""
        t = self.sim.now
        if self._tx_end is not None:
            t = max(t, self._tx_end)
        led = self._led
        if led is not None:
            nid = self.node_id
            for batch in led.active:
                if batch.end > t and nid in batch.added_list:
                    t = batch.end
            return t
        for a in self._arrivals:
            if a.end > t:
                t = a.end
        return t

    def set_mac_waiting(self, waiting: bool) -> None:
        """MAC hint: it is parked in a contention state and needs
        ``medium_changed`` edges. Only consulted by the batched engine
        (gating calls that would provably no-op); a no-op otherwise."""
        led = self._led
        if led is not None:
            led.wants_medium[self.node_id] = waiting

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
        if self._down:
            # Powered off: the frame goes nowhere, but the MAC's transmit
            # cycle completes normally so its state machine stays sound.
            duration = frame.airtime(self.params.bitrate)
            self._tx_end = self.sim.now + duration
            if led is not None:
                # Half duplex survives the crash: should this radio
                # recover mid-"transmission", arrivals are still lost.
                led.txing[self.node_id] = True
                led.n_txing += 1
            self.stats.down_tx_drops += 1
            self.sim.schedule(duration, self._transmit_done, frame)
            return duration
        # Transmitting stomps any reception in progress (half duplex).
        if led is not None:
            led.txing[self.node_id] = True
            led.n_txing += 1
            if self._rx_frame is not None:
                self._rx_frame = None
                led.rx_power[self.node_id] = 0.0
                self.stats.halfduplex_drops += 1
        elif self._rx is not None:
            self._rx.corrupted = True
            self.stats.halfduplex_drops += 1
            self._rx = None
        duration = frame.airtime(self.params.bitrate)
        self._tx_end = self.sim.now + duration
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
        if led is not None:
            led.txing[self.node_id] = False
            led.n_txing -= 1
        if self.mac is not None:
            self.mac.on_transmit_done(frame)
            self.mac.medium_changed()

    # ------------------------------------------------------------ receiving

    def begin_arrival(
        self,
        frame: Frame,
        power: float,
        duration: float,
        end: Optional[float] = None,
    ):
        """Channel callback: *frame* starts arriving with *power* watts.

        Returns the arrival entry (the channel ends it via
        :meth:`end_arrival` when the frame's airtime elapses), or
        ``None`` for undetectable signals. *end* is the precomputed
        arrival end time (``now + duration``), shared by every receiver
        of one transmission; ``None`` (direct unit-test callers) means
        "compute it here". ``None`` — not a negative float — is the
        sentinel, so every real timestamp is representable.
        """
        fp = self._flight_phy
        if self._down:
            self.stats.down_rx_drops += 1
            if fp is not None:
                self._fnote("phy_rx_down", frame)
            return None  # powered off: deaf to everything
        if power < self._cs_threshold:
            if fp is not None:
                self._fnote("phy_below_cs", frame)
            return None  # undetectable: below the noise visibility floor
        stats = self.stats
        arrivals = self._arrivals
        if end is None:
            end = self.sim._now + duration
        free = self._free
        if free:
            entry = free.pop()
            entry.frame = frame
            entry.power = power
            entry.end = end
            entry.corrupted = False
            perf = self.perf
            if perf is not None:
                perf.arrivals_pooled += 1
        else:
            entry = _Arrival(frame, power, end)
        tx_end = self._tx_end
        # The MAC only needs a notification when the carrier may have
        # flipped idle -> busy; overlapping arrivals leave it busy.
        was_idle = tx_end is None and not arrivals

        rx = self._rx
        if tx_end is not None:
            # Arrivals during our own transmission are unreceivable.
            entry.corrupted = True
            stats.halfduplex_drops += 1
            if fp is not None:
                self._fnote("phy_halfduplex", frame)
        elif rx is not None:
            # Already decoding: capture or mutual corruption.
            if rx.power >= self._capture_ratio * power:
                stats.capture_ignored += 1
                if fp is not None:
                    self._fnote("phy_capture", frame)
            else:
                rx.corrupted = True
                entry.corrupted = True
                stats.collisions += 1
                if fp is not None:
                    self._fnote("phy_collision", frame)
                    self._fnote("phy_collision", rx.frame)
        elif power >= self._rx_threshold:
            # Candidate decode; pre-existing interference may already
            # bury it.
            strongest = 0.0
            for a in arrivals:
                if a.power > strongest:
                    strongest = a.power
            if power >= self._capture_ratio * strongest:
                self._rx = entry
                stats.airtime_rx += duration
                if fp is not None:
                    self._fnote("phy_decode_start", frame)
            else:
                entry.corrupted = True
                stats.collisions += 1
                if fp is not None:
                    self._fnote("phy_collision", frame)
        # else: detectable but too weak to decode -> busy only.

        arrivals.append(entry)
        if was_idle:
            mac = self.mac
            if mac is not None:
                mac.medium_changed()
        return entry

    def _fnote(self, ev: str, frame: Frame) -> None:
        """Trace a PHY verdict for the data packet *frame* carries.

        Control frames (RTS/CTS/ACK, routing floods) have no per-packet
        identity worth tracing; only DATA frames wrapping measured data
        packets land in the flight trace.
        """
        pkt = frame.payload
        if pkt is not None and pkt.is_data:
            self._flight_phy.note(ev, pkt.origin_uid, self.node_id)

    def end_arrival(self, entry: _Arrival) -> None:
        self._arrivals.remove(entry)
        mac = self.mac
        if entry is self._rx:
            self._rx = None
            corrupted = entry.corrupted
            frame = entry.frame
            power = entry.power
            # Recycle before the MAC callback: the entry is out of
            # _arrivals and fully read, so reentrant begin_arrival
            # (synchronous responses) may reuse it immediately.
            entry.frame = None
            self._free.append(entry)
            if not corrupted:
                self.stats.frames_received += 1
                if mac is not None:
                    mac.on_frame_received(frame, power)
        else:
            entry.frame = None
            self._free.append(entry)
            if self._arrivals or self._tx_end is not None:
                # Carrier still busy and nothing was delivered: the MAC
                # has nothing to react to.
                return
        if mac is not None:
            mac.medium_changed()
