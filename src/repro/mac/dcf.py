"""IEEE 802.11 DCF (distributed coordination function) MAC.

This is the paper's MAC: CSMA/CA with binary exponential backoff, the
RTS/CTS/DATA/ACK exchange for unicast, plain DATA for broadcast, and
link-layer failure feedback to the routing protocol when a unicast
exhausts its retries.

The implementation is event-driven with **no per-slot events**: a
backoff of *k* slots is one timer; if the medium turns busy mid-count
the timer is cancelled and the slots already elapsed are credited
(``floor(elapsed / slot)``), exactly reproducing freeze/resume
semantics at a fraction of the event cost. This is the simplification
documented in DESIGN.md — contention *behaviour* (who waits, who
collides, how retries escalate) is preserved.

Virtual carrier sense (NAV) is honored: RTS/CTS/DATA frames carry the
remaining reservation and third parties defer for its duration.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Optional, Tuple

from ..core.drops import DropReason
from ..core.simulator import Simulator
from ..net.packet import BROADCAST, Packet
from ..phy.radio import Radio
from .base import MacLayer
from .frames import Dot11, Frame, FrameType

__all__ = ["DcfMac"]

# MAC service states. Small ints: medium_changed fires on every arrival
# edge and range-checks the three states that can react (1..3).
_IDLE = 0
_WAIT_MEDIUM = 1
_DIFS = 2
_BACKOFF = 3
_TX = 4
_WAIT_CTS = 5
_WAIT_ACK = 6


class DcfMac(MacLayer):
    """802.11 DCF channel access for one node.

    DCF never transmits synchronously from a delivery or carrier-edge
    callback (responses go through a SIFS timer), so the channel's
    batched arrival engine can resolve a whole fan-out without this MAC
    re-entering it mid-batch.

    Parameters
    ----------
    sim, radio:
        Kernel and PHY attachments.
    rng:
        Generator for backoff draws (one independent stream per node).
    use_rtscts:
        Enable the RTS/CTS exchange for unicast data above
        ``rts_threshold`` bytes (the A1 ablation toggles this).
    rts_threshold:
        Minimum payload size (bytes) that triggers RTS/CTS; 0 means
        every unicast uses it (ns-2's default behaviour for DSR/AODV
        studies).
    promiscuous:
        Deliver overheard data frames to ``upper.snoop`` (DSR uses this
        for route-cache learning).
    """

    #: Safe under the batched arrival engine: every transmission is
    #: timer-driven, never synchronous from a radio callback.
    batch_safe = True

    #: Eligible for the shared contention arena (inlined busy-edge
    #: resolution + coalesced timer wheel; see ``repro.mac.arena``).
    arena_safe = True

    def __init__(
        self,
        sim: Simulator,
        radio: Radio,
        rng,
        ifq_capacity: int = 50,
        use_rtscts: bool = True,
        rts_threshold: int = 0,
        promiscuous: bool = False,
        retry_limit: int = Dot11.SHORT_RETRY_LIMIT,
    ):
        super().__init__(sim, radio, ifq_capacity)
        self.rng = rng
        self.use_rtscts = use_rtscts
        self.rts_threshold = rts_threshold
        self.promiscuous = promiscuous
        self.retry_limit = retry_limit

        self._state = _IDLE
        #: Mirror of ``_WAIT_MEDIUM <= _state <= _BACKOFF``, pushed to
        #: the radio so the batched engine only generates
        #: ``medium_changed`` edges this MAC can react to.
        self._waiting = False
        self._current: Optional[Tuple[Packet, int]] = None
        self._retries = 0
        self._cw = Dot11.CW_MIN
        self._backoff_slots = 0
        self._backoff_start = 0.0
        self._timer = None  # the single contention/timeout timer
        self._nav = 0.0
        self._nav_wake = 0.0  # latest NAV expiry a wake-up is scheduled for
        self._tx_frame: Optional[Frame] = None
        self._responses: set[int] = set()  # uids of CTS/ACK/DATA responses
        self._pending_data: Optional[Frame] = None  # DATA awaiting CTS grant
        self._seen: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        #: Shared contention arena (None on the per-node path): its
        #: wheel takes this MAC's contention timers, and its busy-edge
        #: loop reads and writes the waiting-state fields above.
        self._arena = None

    def attach_arena(self, arena) -> None:
        """Join the shared contention arena."""
        self._arena = arena

    def _sched(self, delay: float, fn, *args):
        """Schedule a contention-plane timer (DIFS/backoff/NAV/SIFS).

        Routed through the arena's coalescing timer wheel when attached
        — same ``(time, seq)`` ordering as a heap event, one sentinel
        per distinct deadline — and through the plain heap otherwise.
        Exchange timeouts (CTS/ACK) stay on the heap: they are per-node
        and rarely share deadlines.
        """
        arena = self._arena
        if arena is not None:
            return arena.wheel.schedule(self.sim._now + delay, fn, args)
        return self.sim.schedule(delay, fn, *args)

    # ---------------------------------------------------------------- sizes

    def _airtime(self, size: int) -> float:
        return Dot11.PLCP_OVERHEAD + size * 8.0 / self.radio.params.bitrate

    # ----------------------------------------------------------- downward

    def send(self, packet: Packet, next_hop: int) -> None:
        if not self.ifq.push(packet, next_hop):
            self.stats.drops_ifq_full += 1
            if self._flight is not None:
                self._flight.drop(packet, DropReason.IFQ_FULL, self.address)
            return
        if self._state == _IDLE:
            self._service()

    # ------------------------------------------------------------- service

    def _service(self) -> None:
        """Pick up the next queued packet and start contending."""
        assert self._state == _IDLE
        entry = self.ifq.pop()
        if entry is None:
            return
        self._current = entry
        self._retries = 0
        self._cw = Dot11.CW_MIN
        self._backoff_slots = int(self.rng.integers(0, self._cw + 1))
        self._begin_contention()

    def _set_state(self, state: int) -> None:
        """Transition the service state, mirroring the waiting flag.

        The radio hint lets the batched arrival engine skip
        ``medium_changed`` notifications while we are in a state that
        ignores them (see :meth:`medium_changed`'s range check — the
        gate and this mirror encode the same condition).
        """
        self._state = state
        waiting = _WAIT_MEDIUM <= state <= _BACKOFF
        if waiting != self._waiting:
            self._waiting = waiting
            self.radio.set_mac_waiting(waiting)

    def _phys_busy(self) -> bool:
        """Physical carrier sense: own transmission or any arrival."""
        # carrier_busy() inlined: medium_changed fires on every arrival
        # edge.
        radio = self.radio
        if radio._tx_end is not None:
            return True
        led = radio._led
        if led is not None:
            return led.counts[radio.node_id] > 0
        return bool(radio._arrivals)

    def _medium_busy(self) -> bool:
        return self.sim._now < self._nav or self._phys_busy()

    def _begin_contention(self) -> None:
        if self._medium_busy():
            self._set_state(_WAIT_MEDIUM)
            self._ensure_nav_wake()
            return
        self._set_state(_DIFS)
        self._timer = self._sched(Dot11.DIFS, self._difs_done)

    def _resume_contention(self) -> None:
        """End-of-frame resume of a parked bystander: the medium is
        provably idle.

        The channel's arena resolve loop already established ``not
        busy`` for this node (ledger count 0, not transmitting, NAV
        expired — all frozen for bystanders during the resolve pass),
        so this is exactly :meth:`_begin_contention`'s idle branch
        without re-deriving busy-ness per node. Only called with an
        arena attached; inlined stores because resume storms (every
        parked node, every reservation end) are a saturated cell's hot
        loop. _WAIT_MEDIUM -> _DIFS stays inside the waiting band, so
        the radio wants_medium flag is untouched.
        """
        self._state = _DIFS
        self._timer = self._arena.wheel.schedule(
            self.sim._now + Dot11.DIFS, self._difs_done
        )

    def _ensure_nav_wake(self) -> None:
        """Schedule a wake-up at NAV expiry while we wait on the medium.

        NAV wake-ups are lazy: :meth:`_set_nav` only records the
        reservation, and a timer is scheduled just when this MAC is
        actually parked in ``_WAIT_MEDIUM`` (otherwise radio edges or
        our own timers already cover every transition). ``_nav_wake``
        dedups so each reservation extension costs at most one event.
        """
        nav = self._nav
        now = self.sim.now
        if now < nav and self._nav_wake < nav:
            self._nav_wake = nav
            self._sched(nav - now, self._nav_wake_fired)

    def _nav_wake_fired(self) -> None:
        # ``now + (nav - now)`` can round one ulp below ``nav``, leaving
        # the medium still NAV-busy when the wake fires. Clearing the
        # dedup marker first lets medium_changed re-arm a wake for the
        # residual ulp (the fixpoint converges in one step).
        self._nav_wake = 0.0
        self.medium_changed()

    def medium_changed(self) -> None:
        # Hot path: the radio notifies on every arrival edge, but only
        # three states care. Check state before computing busy-ness.
        state = self._state
        if state < _WAIT_MEDIUM or state > _BACKOFF:
            return
        self.medium_edge(self._phys_busy())

    def medium_edge(self, phys_busy: bool) -> None:
        """DCF's reaction to a carrier edge, physical busy-ness given.

        *phys_busy* is :meth:`_phys_busy` (:meth:`medium_changed` reads
        it per call; the batched channel gathers it once per resolve
        pass, during which it is frozen); the NAV term is re-read from
        the live scalar because a delivery earlier in the same pass may
        have raised it.
        """
        state = self._state
        if state < _WAIT_MEDIUM or state > _BACKOFF:
            return
        busy = phys_busy or self.sim._now < self._nav
        if state == _WAIT_MEDIUM:
            if not busy:
                self._begin_contention()
            else:
                self._ensure_nav_wake()
        elif state == _DIFS and busy:
            self.sim.cancel(self._timer)
            self._timer = None
            self._set_state(_WAIT_MEDIUM)
            self._ensure_nav_wake()
        elif state == _BACKOFF and busy:
            self.sim.cancel(self._timer)
            self._timer = None
            elapsed = self.sim.now - self._backoff_start
            consumed = int(math.floor(elapsed / Dot11.SLOT + 1e-9))
            self._backoff_slots = max(0, self._backoff_slots - consumed)
            self._set_state(_WAIT_MEDIUM)
            self._ensure_nav_wake()

    def _difs_done(self) -> None:
        self._timer = None
        if self._backoff_slots == 0:
            self._transmit_current()
            return
        # _DIFS -> _BACKOFF stays inside the waiting band (what
        # _set_state would conclude); inlined because the whole cell's
        # DIFS expirations drain through one wheel bucket back-to-back.
        now = self.sim._now
        self._state = _BACKOFF
        self._backoff_start = now
        arena = self._arena
        if arena is not None:
            self._timer = arena.wheel.schedule(
                now + self._backoff_slots * Dot11.SLOT, self._backoff_done
            )
        else:
            self._timer = self.sim.schedule(
                self._backoff_slots * Dot11.SLOT, self._backoff_done
            )

    def _backoff_done(self) -> None:
        self._timer = None
        self._backoff_slots = 0
        self._transmit_current()

    # ------------------------------------------------------------- transmit

    def _transmit_current(self) -> None:
        assert self._current is not None
        packet, next_hop = self._current
        if self.radio.is_transmitting:
            # A SIFS response frame grabbed the radio; re-contend when
            # it completes (medium_changed will fire).
            self._backoff_slots = max(1, self._backoff_slots)
            self._set_state(_WAIT_MEDIUM)
            return
        flight = self._flight
        if flight is not None and packet.is_data:
            flight.note(
                "mac_attempt", packet.origin_uid, self.address,
                next_hop=next_hop, retry=self._retries,
            )
        wants_rts = (
            self.use_rtscts
            and next_hop != BROADCAST
            and packet.size >= self.rts_threshold
        )
        if wants_rts:
            data = Frame.data(self.address, next_hop, packet)
            data_air = self._airtime(data.size)
            cts_air = self._airtime(Dot11.CTS_SIZE)
            ack_air = self._airtime(Dot11.ACK_SIZE)
            nav = 3 * Dot11.SIFS + cts_air + data_air + ack_air
            frame = Frame.rts(self.address, next_hop, nav)
            data.nav = Dot11.SIFS + ack_air
            self._pending_data = data
            self.stats.rts_sent += 1
        else:
            nav = 0.0
            if next_hop != BROADCAST:
                nav = Dot11.SIFS + self._airtime(Dot11.ACK_SIZE)
            frame = Frame.data(self.address, next_hop, packet, nav=nav)
            self._pending_data = None
            self.stats.data_sent += 1
        self._set_state(_TX)
        self._tx_frame = frame
        self.radio.transmit(frame)

    def on_transmit_done(self, frame: Frame) -> None:
        if frame.uid in self._responses:
            self._responses.discard(frame.uid)
            return
        if frame is not self._tx_frame:
            return  # stale (e.g. dropped mid-flight bookkeeping)
        self._tx_frame = None
        if frame.ftype == FrameType.RTS:
            timeout = (
                Dot11.SIFS + self._airtime(Dot11.CTS_SIZE) + 2 * Dot11.SLOT
            )
            self._set_state(_WAIT_CTS)
            self._timer = self.sim.schedule(timeout, self._cts_timeout)
        elif frame.ftype == FrameType.DATA:
            if frame.is_broadcast:
                self._complete_success()
            else:
                timeout = (
                    Dot11.SIFS + self._airtime(Dot11.ACK_SIZE) + 2 * Dot11.SLOT
                )
                self._set_state(_WAIT_ACK)
                self._timer = self.sim.schedule(timeout, self._ack_timeout)

    # ------------------------------------------------------------- receive

    def on_frame_received(self, frame: Frame, rx_power: float) -> None:
        ftype = frame.ftype
        if ftype == FrameType.RTS:
            if frame.dst == self.address:
                cts_nav = frame.nav - Dot11.SIFS - self._airtime(Dot11.CTS_SIZE)
                cts = Frame.cts(self.address, frame.src, max(cts_nav, 0.0))
                self._schedule_response(cts)
            else:
                self._set_nav(self.sim._now + frame.nav)
        elif ftype == FrameType.CTS:
            if frame.dst == self.address and self._state == _WAIT_CTS:
                self.sim.cancel(self._timer)
                self._timer = None
                data = self._pending_data
                self._pending_data = None
                if data is not None:
                    self.stats.data_sent += 1
                    self._set_state(_TX)
                    self._tx_frame = data
                    self._schedule_response(data, own_exchange=True)
            elif frame.dst != self.address:
                self._set_nav(self.sim._now + frame.nav)
        elif ftype == FrameType.DATA:
            if frame.dst == self.address:
                ack = Frame.ack(self.address, frame.src)
                self._schedule_response(ack)
                self._deliver_dedup(frame, rx_power)
            elif frame.is_broadcast:
                self._deliver_up(frame.payload, frame.src, rx_power)
            else:
                self._set_nav(self.sim._now + frame.nav)
                if self.promiscuous and self.upper is not None:
                    snoop = getattr(self.upper, "snoop", None)
                    if snoop is not None:
                        snoop(frame.payload, frame.src, frame.dst)
        elif ftype == FrameType.ACK:
            if frame.dst == self.address and self._state == _WAIT_ACK:
                self.sim.cancel(self._timer)
                self._timer = None
                self._complete_success()

    def _deliver_dedup(self, frame: Frame, rx_power: float) -> None:
        """Deliver a unicast DATA payload unless it is a retransmission
        we already passed up (the original ACK was lost)."""
        key = (frame.src, frame.payload.uid)
        if key in self._seen:
            self.stats.duplicates_suppressed += 1
            return
        self._seen[key] = None
        if len(self._seen) > 128:
            self._seen.popitem(last=False)
        self._deliver_up(frame.payload, frame.src, rx_power)

    def _schedule_response(self, frame: Frame, own_exchange: bool = False) -> None:
        """Send *frame* one SIFS from now, bypassing contention."""
        self._sched(Dot11.SIFS, self._fire_response, frame, own_exchange)

    def _fire_response(self, frame: Frame, own_exchange: bool) -> None:
        if self.radio.is_transmitting:
            # Radio stolen by another response. A third-party CTS/ACK is
            # simply abandoned; our own granted DATA must not deadlock
            # the service loop, so treat it as a failed attempt.
            if own_exchange:
                self._tx_frame = None
                self._retry()
            else:
                # Silent CTS/ACK loss: the peer will time out and retry.
                # Counted so saturated collision domains can be told
                # apart from propagation loss when diagnosing delay.
                self.stats.responses_abandoned += 1
            return
        if not own_exchange:
            if frame.ftype == FrameType.CTS:
                self.stats.cts_sent += 1
            elif frame.ftype == FrameType.ACK:
                self.stats.ack_sent += 1
            self._responses.add(frame.uid)
        self.radio.transmit(frame)

    # ------------------------------------------------------------- timeouts

    def _cts_timeout(self) -> None:
        self._timer = None
        self._pending_data = None
        self._retry()

    def _ack_timeout(self) -> None:
        self._timer = None
        self._retry()

    def _retry(self) -> None:
        assert self._current is not None
        self._retries += 1
        self.stats.retries += 1
        if self._retries > self.retry_limit:
            packet, next_hop = self._current
            self._current = None
            self._set_state(_IDLE)
            self._cw = Dot11.CW_MIN
            flight = self._flight
            if flight is not None and packet.is_data:
                # Not terminal — the routing layer decides the packet's
                # fate (salvage / re-buffer / drop) in link_failed.
                flight.note(
                    "mac_retry_limit", packet.origin_uid, self.address,
                    next_hop=next_hop,
                )
            self._link_failed(packet, next_hop)
            # The failure callback may have re-entered send() (e.g. a
            # routing agent salvaging the packet), which already starts
            # service; only kick the queue if we are still idle.
            if self._state == _IDLE:
                self._service()
            return
        self._cw = min(2 * self._cw + 1, Dot11.CW_MAX)
        self._backoff_slots = int(self.rng.integers(0, self._cw + 1))
        self._begin_contention()

    # ----------------------------------------------------------- completion

    def _complete_success(self) -> None:
        self._current = None
        self._set_state(_IDLE)
        self._cw = Dot11.CW_MIN
        self._service()

    # ------------------------------------------------------------------ nav

    def _set_nav(self, until: float) -> None:
        if until > self._nav:
            self._nav = until
            # The immediate notification lets _DIFS/_BACKOFF freeze; the
            # expiry wake-up is scheduled lazily (see _ensure_nav_wake)
            # so reservations that nobody waits on cost no events.
            self.medium_changed()

    #: Batched-engine shortcut for frames addressed to another node:
    #: for a non-promiscuous DCF their only effect is the virtual
    #: carrier-sense update, so the channel applies the NAV directly
    #: instead of walking :meth:`on_frame_received`'s dispatch. Same
    #: code object as ``_set_nav`` — identical behaviour by construction.
    overhear_nav = _set_nav
    batch_overhear = True
