"""The shared wireless channel.

One :class:`Channel` connects every radio in the scenario. A
transmission is fanned out to every other radio whose received power
clears the carrier-sense threshold, and its arrivals begin at once
(propagation delay inside the 550 m carrier-sense range is < 2 us — far
below every MAC constant — so it is not modelled). The channel resolves
the reception rules of :mod:`repro.phy.radio` for the whole fan-out in
one pass over the radios' shared :class:`~repro.phy.radio.ArrivalLedger`.

Receiver discovery is O(N) with one vectorized power computation per
transmission; above ``grid_threshold`` nodes a uniform spatial grid
prunes the candidate set first.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..core.errors import ConfigurationError, SimulationError
from ..core.simulator import Simulator
from ..mac.frames import Frame, FrameType
from ..mobility.manager import MobilityManager
from ..net.packet import BROADCAST
from .propagation import PropagationModel, RadioParams
from .radio import ArrivalLedger, Radio
from .spatial import SpatialIndex

__all__ = ["Channel", "ChannelStats"]


class _BatchTargets:
    """One (src, position-epoch) fan-out in array form, memo-resident.

    Besides the id/power vectors this precomputes the decode-threshold
    mask and the plain-Python list twins the per-transmission loops
    consume, so a memo hit pays zero array→list conversions.
    """

    __slots__ = ("ids", "powers", "dec", "dec_idx", "dec_pw", "ids_list",
                 "dec_ids_list", "dec_list", "pw_list")

    def __init__(self, ids, powers, rx_threshold):
        self.ids = ids
        self.powers = powers
        dec = powers >= rx_threshold
        self.dec = dec
        self.dec_idx = ids[dec]
        self.dec_pw = powers[dec]
        self.ids_list = ids.tolist()
        self.dec_ids_list = self.dec_idx.tolist()
        self.dec_list = dec.tolist()
        self.pw_list = powers.tolist()


class _TxBatch:
    """One in-flight transmission as tracked on the ledger.

    ``added``/``added_pw`` are the receivers whose arrival actually
    began (powered-off radios excluded) and their powers — the rows the
    end event must retire from the ledger; ``pw_list`` carries the
    delivery powers as a list twin, so the end loop runs on plain
    Python scalars. ``epoch`` is the ledger epoch this fan-out stamped
    (decoders hold it in ``rx_tx``). ``targets`` is the fan-out memo
    entry when the fan-out took the quiet path, else None.
    """

    __slots__ = ("frame", "added", "added_pw", "added_list", "pw_list",
                 "end", "epoch", "targets")

    def __init__(self, frame, added, added_pw, added_list, pw_list, end,
                 epoch, targets):
        self.frame = frame
        self.added = added
        self.added_pw = added_pw
        self.added_list = added_list
        self.pw_list = pw_list
        self.end = end
        self.epoch = epoch
        self.targets = targets


class ChannelStats:
    """Channel-wide counters."""

    __slots__ = ("transmissions", "deliveries_attempted", "airtime")

    def __init__(self) -> None:
        #: Frames put on the air.
        self.transmissions = 0
        #: Receiver arrivals fanned out (≥ CS threshold).
        self.deliveries_attempted = 0
        #: Total transmit airtime (s), summed over frames.
        self.airtime = 0.0


class Channel:
    """Broadcast medium shared by all nodes.

    Parameters
    ----------
    sim:
        Owning simulator.
    mobility:
        Positions source; node ids index into it.
    propagation:
        Path-loss model.
    params:
        Shared radio constants.
    grid_threshold:
        Node count above which the spatial grid is used for candidate
        pruning instead of brute-force vectorized distances.
    position_quantum:
        Geometry sample period (s). Transmissions sample node positions
        at ``floor(now / q) * q`` — the *position epoch* — instead of
        the exact frame time, so every frame inside one quantum shares
        one geometry snapshot (and one fan-out memo entry). 0 disables
        quantization. At the paper's 20 m/s top speed a 5 ms quantum
        bounds the sampling error at 0.1 m against a 250 m radio range.
    """

    def __init__(
        self,
        sim: Simulator,
        mobility: MobilityManager,
        propagation: PropagationModel,
        params: RadioParams,
        grid_threshold: int = 128,
        position_quantum: float = 0.0,
    ):
        if position_quantum < 0:
            raise ConfigurationError(
                f"position quantum must be >= 0, got {position_quantum}"
            )
        self.sim = sim
        self.mobility = mobility
        self.propagation = propagation
        self.params = params
        self.stats = ChannelStats()
        self.radios: List[Optional[Radio]] = [None] * len(mobility)
        self._grid_threshold = grid_threshold
        self._max_range = params.cs_range(propagation)
        if self._max_range <= 0:
            raise ConfigurationError(
                "radio cannot reach carrier-sense threshold at any distance"
            )
        self._grid: Optional[SpatialIndex] = None
        self._grid_time = -1.0
        #: The grid path's radius test, ``d2 <= r * r`` (what
        #: ``SpatialIndex.query_radius`` applies).
        self._range_d2 = self._max_range * self._max_range
        #: Below this node count, fan-out uses the scalar power loop.
        self._scalar_threshold = 32
        self._pts_time = -1.0
        self._pts_x: Optional[list] = None
        self._pts_y: Optional[list] = None
        self._quantum = position_quantum
        #: The fan-out memo, so the RTS/CTS/DATA/ACK burst of one
        #: exchange computes geometry once. src id -> ``(sample time,
        #: targets, valid until)``: *targets* is the ``_BatchTargets``
        #: built from the position snapshot at *sample time*; *valid
        #: until* is the mobility manager's ``static_until`` read right
        #: after that snapshot. The entry is a hit at its own epoch and
        #: at any later one before *valid until* (-inf while anything
        #: moves). Positions are pure functions of time (analytic
        #: trajectories), so the memo is exact.
        self._memo: dict = {}
        #: Epoch of the last memo miss, and a lower bound on the *valid
        #: until* of every entry: the first miss of a new epoch at or
        #: past the floor drops the entries that can never hit again.
        self._memo_tq = -math.inf
        self._memo_floor = math.inf
        #: Interference state of every radio; attach joins each one.
        self._ledger = ArrivalLedger(len(mobility))
        #: Node ids still without a radio: while any remain, each fan-out
        #: miss checks that its receivers have one.
        self._unattached = len(mobility)
        #: Shared DCF contention arena (see :meth:`enable_arena`).
        self._arena = None
        #: Whether every MAC supports ``overhear_nav`` (virtual carrier
        #: sense applied directly instead of a full delivery walk), and
        #: whether any MAC snoops overheard DATA. Decided at the first
        #: frame end, once every MAC is attached.
        self._overhear_ok: Optional[bool] = None
        self._promiscuous = False
        # Flight recorder with PHY verdicts requested, frozen at
        # construction like each radio's.
        flight = sim.flight
        self._flight_phy = (
            flight if flight is not None and flight.trace else None
        )
        self.perf = sim.perf
        #: Fault-injection filter (see repro.faults.manager.FaultManager):
        #: consulted per transmission, after the geometry memo, so the
        #: memo stays exact. None (the default) leaves the fan-out path
        #: byte-for-byte identical to the fault-free engine.
        self.fault_hook = None

    # ------------------------------------------------------------- topology

    def attach(self, radio: Radio) -> None:
        """Register *radio* under its node id."""
        nid = radio.node_id
        if not 0 <= nid < len(self.radios):
            raise ConfigurationError(
                f"node id {nid} outside mobility table of size {len(self.radios)}"
            )
        if self.radios[nid] is not None:
            raise ConfigurationError(f"node id {nid} already has a radio")
        radio.channel = self
        radio._led = self._ledger
        self.radios[nid] = radio
        self._unattached -= 1

    @property
    def max_range(self) -> float:
        """Carrier-sense range (m): the fan-out radius."""
        return self._max_range

    # ------------------------------------------------------ contention arena

    def enable_arena(self) -> bool:
        """Attach the shared DCF contention arena (see repro.mac.arena).

        Requires every radio attached and every MAC opted in via
        ``arena_safe`` (the arena's loops work on DCF's waiting-state
        fields). Carrier-edge resolution then runs through inlined
        loops, and a clean frame (see :meth:`_end_transmission`) ends
        on the ledger — bit-identical outcomes, fewer Python
        dispatches.

        Returns whether the arena is now active.
        """
        for radio in self.radios:
            mac = radio.mac if radio is not None else None
            if mac is None or not getattr(mac, "arena_safe", False):
                return False
        from ..mac.arena import ContentionArena

        self._arena = ContentionArena(self.sim, self._ledger, self.radios)
        return True

    def flush_phy_stats(self) -> None:
        """Fold the ledger's stat deltas into per-radio RadioStats.

        Must run before radio counters are read for metrics.
        """
        self._ledger.flush(self.radios)

    # ------------------------------------------------------------ transmit

    def transmit(self, src: Radio, frame: Frame, duration: float) -> None:
        """Fan *frame* out from *src* to every detectable receiver."""
        self.stats.transmissions += 1
        self.stats.airtime += duration
        self._fan_out(src, frame, duration, self._targets(src.node_id))

    def _targets(self, src_id: int) -> _BatchTargets:
        """Memoized fan-out of *src_id* at the current position epoch."""
        q = self._quantum
        now = self.sim._now
        # Position epoch: geometry is sampled on a quantized clock so
        # consecutive frames of one exchange share a snapshot.
        tq = now if q <= 0.0 else int(now / q) * q
        perf = self.perf
        hit = self._memo.get(src_id)
        # Simulation time never runs backwards, so an entry is only
        # ever asked about its own epoch or a later one.
        if hit is not None and (hit[0] == tq or tq < hit[2]):
            perf.fanout_cache_hits += 1
            return hit[1]
        if tq != self._memo_tq:
            self._memo_tq = tq
            if tq >= self._memo_floor:
                self._evict(tq)
        targets = self._build_targets(src_id, tq)
        if self._unattached:
            # Memo entries are only built here, and radios are never
            # detached, so checking misses covers every fan-out.
            radios = self.radios
            for nid in targets.ids_list:
                if radios[nid] is None:
                    raise SimulationError(
                        f"node {nid} is in range but has no radio"
                    )
        until = self.mobility.static_until
        self._memo[src_id] = (tq, targets, until)
        if until < self._memo_floor:
            self._memo_floor = until
        perf.fanout_cache_misses += 1
        return targets

    def _evict(self, tq: float) -> None:
        """Keep only the memo entries that still hit at epoch *tq*.

        An entry that misses at *tq* is from an earlier epoch and *tq*
        has reached its bound; every later epoch is later still, so it
        can never hit again. A static field never gets here (its floor
        is its one bound); a moving field empties in one pass.
        """
        live = {src: e for src, e in self._memo.items() if e[0] == tq or tq < e[2]}
        self._memo = live
        self._memo_floor = min([e[2] for e in live.values()]) if live else math.inf

    def _build_targets(self, src_id: int, tq: float) -> _BatchTargets:
        """Fan-out memo entry of *src_id* at sample time *tq*.

        One pass from the position snapshot to the entry: one
        squared-distance vector over every node (the source struck out),
        or above ``grid_threshold`` over the grid's cached cell block in
        bucket order cut by the radius mask; the path-loss model on it,
        and the exact ``power >= cs_threshold`` mask. At or
        below ``_scalar_threshold`` nodes the scalar loop feeds the
        entry instead. Ids (in order) and powers are bit-equal to the
        list form kept as ``reference_fanout`` in
        ``tests/phy/test_fanout_fused.py``.
        """
        positions = self.mobility.positions(tq)
        n = len(positions)
        if n <= self._scalar_threshold:
            eligible, powers = self._scalar_fanout(positions, src_id, tq)
            if src_id in eligible:
                at = eligible.index(src_id)
                del eligible[at], powers[at]
            return _BatchTargets(
                np.array(eligible, dtype=np.intp),
                np.array(powers, dtype=np.float64),
                self.params.rx_threshold,
            )
        params = self.params
        if n > self._grid_threshold:
            sx = positions[src_id, 0]
            sy = positions[src_id, 1]
            self._sync_grid(positions, tq)
            cand = self._grid.candidates(sx, sy, self._max_range)
            dx = positions[cand, 0] - sx
            dy = positions[cand, 1] - sy
            d2 = dx * dx + dy * dy
            near = d2 <= self._range_d2
            near &= cand != src_id
            pw = self.propagation.rx_power_d2_vec(params.tx_power, d2[near])
            keep = pw >= params.cs_threshold
            return _BatchTargets(cand[near][keep], pw[keep],
                                 params.rx_threshold)
        # Every node: d² in three passes, the source struck out with an
        # infinite distance (zero power, below any threshold). The
        # exact ``power >= cs_threshold`` mask does all the selecting.
        d = positions - positions[src_id]
        d *= d
        d2 = d[:, 0] + d[:, 1]
        d2[src_id] = math.inf
        pw = self.propagation.rx_power_d2_vec(params.tx_power, d2)
        keep = pw >= params.cs_threshold
        return _BatchTargets(keep.nonzero()[0], pw[keep],
                             params.rx_threshold)

    def _scalar_fanout(self, positions, src_id: int, tq: float):
        """Eligible ids and rx powers (parallel lists, the source
        included) as a plain loop over :meth:`rx_power_d2`.

        Used at or below ``_scalar_threshold`` nodes, where NumPy
        dispatch costs more than the arithmetic. It evaluates the same
        float64 expressions as the array form, so the choice of path
        never changes results.
        """
        if self._pts_time != tq:
            self._pts_x = positions[:, 0].tolist()
            self._pts_y = positions[:, 1].tolist()
            self._pts_time = tq
        xs = self._pts_x
        ys = self._pts_y
        sx = xs[src_id]
        sy = ys[src_id]
        tx_power = self.params.tx_power
        cs = self.params.cs_threshold
        rxp = self.propagation.rx_power_d2
        eligible = []
        powers = []
        for i in range(len(xs)):
            dx = xs[i] - sx
            dy = ys[i] - sy
            p = rxp(tx_power, dx * dx + dy * dy)
            if p >= cs:
                eligible.append(i)
                powers.append(p)
        return eligible, powers

    def _sync_grid(self, positions, tq) -> None:
        """Bring the spatial grid to the snapshot of epoch *tq*."""
        perf = self.perf
        if self._grid is None:
            self._grid = SpatialIndex(cell_size=self._max_range)
            self._grid.rebuild(positions)
            self._grid_time = tq
            perf.grid_rebuilds += 1
        elif self._grid_time != tq:
            self._grid.update(positions)
            self._grid_time = tq
            perf.grid_incremental_updates += 1

    # A whole fan-out resolves with NumPy gathers over the shared
    # ArrivalLedger, and one end event per *transmission* (not per
    # receiver) ends every arrival and completes the sender's transmit.
    # Every mask below is one reception rule of repro.phy.radio; see
    # DESIGN.md "Batched arrival engine".

    def _fan_out(self, src, frame, duration, mb: _BatchTargets) -> None:
        led = self._ledger
        radios = self.radios
        now = self.sim._now
        led.epoch = epoch = led.epoch + 1
        hook = self.fault_hook
        keep = None
        if hook is not None:
            keep = hook.filter_targets_array(src.node_id, mb.ids, now)
        perf = self.perf
        if keep is None:
            ids = mb.ids
            powers = mb.powers
            n = ids.shape[0]
            self.stats.deliveries_attempted += n
            perf.phy_batch_arrivals += n
            if not led.active and led.n_txing == 1 and led.n_down == 0:
                # Quiet channel — the common case at the paper's
                # densities: nothing else is on the air (the only
                # transmitter is the source itself), nobody is down,
                # so every receiver is idle and every reception-rule
                # mask collapses: all arrivals are added, and exactly
                # the above-sensitivity ones decode.
                led.counts[ids] = 1
                led.strongest[ids] = powers
                dec = mb.dec_idx
                led.rx_power[dec] = mb.dec_pw
                led.rx_tx[dec] = epoch
                led.d_airtime_rx[dec] += duration
                if self._flight_phy is not None:
                    for nid in mb.dec_ids_list:
                        radios[nid]._fnote("phy_decode_start", frame)
                batch = _TxBatch(frame, ids, powers, mb.ids_list, mb.pw_list,
                                 now + duration, epoch, mb)
                led.active.append(batch)
                self.sim.schedule(duration, self._end_transmission,
                                  src, frame, batch)
                arena = self._arena
                if arena is not None:
                    arena.busy_edges(ids)
                    return
                w = led.wants_medium[ids]
                if w.any():
                    for nid in ids[w].tolist():
                        mac = radios[nid].mac
                        if mac is not None:
                            mac.medium_changed()
                return
            dec = mb.dec
        else:
            ids = mb.ids[keep]
            powers = mb.powers[keep]
            dec = mb.dec[keep]
            n = ids.shape[0]
            self.stats.deliveries_attempted += n
            perf.phy_batch_arrivals += n

        ratio = self.params.capture_ratio
        down = led.down[ids]
        alive = ~down
        if led.n_down:
            led.d_down_rx[ids[down]] += 1
        txb = led.txing[ids]
        m_half = alive & txb
        led.d_halfduplex[ids[m_half]] += 1
        open_rx = alive & ~txb
        rxp = led.rx_power[ids]
        decoding = open_rx & (rxp > 0.0)
        # Already decoding: capture (decode survives, new energy is
        # ignored) or mutual corruption of decode and new arrival.
        m_capture = decoding & (rxp >= ratio * powers)
        m_kill = decoding & ~m_capture
        led.d_capture[ids[m_capture]] += 1
        # Idle decode candidate: above the sensitivity floor and above
        # the capture margin over the strongest pre-existing arrival.
        m_idle_rx = open_rx & ~decoding & dec
        m_win = m_idle_rx & (powers >= ratio * led.strongest[ids])
        m_lost = m_idle_rx & ~m_win
        led.d_collisions[ids[m_kill | m_lost]] += 1
        # Carrier edge: the medium flips idle -> busy for these.
        was_idle = open_rx & (led.counts[ids] == 0)
        if self._flight_phy is not None:
            self._note_verdicts(frame, ids.tolist(), down, m_half,
                                m_capture, m_kill, m_lost, m_win)

        led.rx_corrupt[ids[m_kill]] = True
        win = ids[m_win]
        led.rx_power[win] = powers[m_win]
        led.rx_tx[win] = epoch
        led.d_airtime_rx[win] += duration
        added = ids[alive]
        added_pw = powers[alive]
        led.counts[added] += 1
        led.strongest[added] = np.maximum(led.strongest[added], added_pw)

        batch = _TxBatch(frame, added, added_pw, added.tolist(),
                         added_pw.tolist(), now + duration, epoch, None)
        led.active.append(batch)
        self.sim.schedule(duration, self._end_transmission, src,
                          frame, batch)
        # Notify idle->busy edges last (ledger state is final), in
        # receiver order, and only where the MAC is parked in a
        # contention state (medium_changed provably no-ops otherwise).
        # With the arena attached the whole pass — waiting filter, busy
        # verdicts, backoff credits — is one inlined loop.
        arena = self._arena
        if arena is not None:
            arena.busy_edges(ids[was_idle])
            return
        for nid in ids[was_idle & led.wants_medium[ids]].tolist():
            mac = radios[nid].mac
            if mac is not None:
                mac.medium_changed()

    def _note_verdicts(self, frame, ids, down, m_half, m_capture, m_kill,
                       m_lost, m_win) -> None:
        """Trace each receiver's verdict on *frame*, in fan-out order.

        Runs before the resolve touches decode state, so a collision
        victim's ledger row still names the frame whose decode it kills
        (traced second, after the newcomer).
        """
        radios = self.radios
        led = self._ledger
        for k, nid in enumerate(ids):
            r = radios[nid]
            if down[k]:
                r._fnote("phy_rx_down", frame)
            elif m_half[k]:
                r._fnote("phy_halfduplex", frame)
            elif m_capture[k]:
                r._fnote("phy_capture", frame)
            elif m_kill[k]:
                r._fnote("phy_collision", frame)
                victim = led.rx_tx[nid]
                r._fnote("phy_collision", next(
                    b.frame for b in led.active if b.epoch == victim))
            elif m_lost[k]:
                r._fnote("phy_collision", frame)
            elif m_win[k]:
                r._fnote("phy_decode_start", frame)

    def _end_transmission(self, src, frame, batch: _TxBatch) -> None:
        """End every arrival of *batch*, deliver its intact decodes and
        resolve the busy->idle carrier edges, in receiver order.

        A frame is *clean* when its fan-out took the quiet path, no
        other fan-out and no ``power_off``/``power_on`` happened before
        it ended (the ledger epoch is still its own), and it is unicast
        with no snooping MAC on a DATA frame. Then every receiver's
        count is 1 and its strongest arrival is this one, every decoder
        still decodes it intact, and no receiver is physically busy
        afterwards, so the ledger returns to idle with array stores and
        Python walks only the addressee and the MACs parked in a
        contention state; every other decoder just takes the frame's
        NAV. Every other frame walks every receiver. Clean frames end
        this way only with the arena attached: the per-node path always
        walks every receiver, and is the reference both are checked
        against.
        """
        led = self._ledger
        active = led.active
        active.remove(batch)
        radios = self.radios
        # Overhear classification, once per frame instead of once per
        # receiver: a non-broadcast frame's only effect on a receiver it
        # is not addressed to is the NAV update (virtual carrier sense),
        # so the batch applies it directly via ``overhear_nav`` and
        # skips the MAC's per-frame dispatch. Promiscuous MACs still
        # take the full path for DATA (they snoop overheard payloads).
        frame_dst = frame.dst
        overhear = self._overhear_ok
        if overhear is None:
            overhear = self._overhear_ok = all(
                r is None or r.mac is None
                or getattr(r.mac, "batch_overhear", False)
                for r in radios
            )
            self._promiscuous = any(
                getattr(r.mac, "promiscuous", False)
                for r in radios if r is not None
            )
        if overhear and frame_dst != BROADCAST:
            bulk = True
            ftype = frame.ftype
            data_frame = ftype == FrameType.DATA
            nav_t = (
                None if ftype == FrameType.ACK
                else self.sim._now + frame.nav
            )
        else:
            bulk = False
            data_frame = False
            nav_t = None
        arena = self._arena
        added = batch.added
        mb = batch.targets
        if (
            arena is not None and mb is not None and led.epoch == batch.epoch
            and bulk and not (data_frame and self._promiscuous)
        ):
            self._end_clean(src, frame, batch, mb, arena, nav_t)
            return
        led.counts[added] -= 1
        # Strongest-arrival recompute: zero the ended receivers and
        # re-max over the transmissions still on the air. max is
        # order-independent, so this is exact, and re-maxing radios
        # outside `added` is idempotent.
        led.strongest[added] = 0.0
        for other in active:
            oa = other.added
            led.strongest[oa] = np.maximum(led.strongest[oa], other.added_pw)
        # Decode verdicts, gathered before the walk: a receiver whose
        # decode is still this frame ends it here, and the reception
        # counts unless interference corrupted it. The walk cannot
        # change them: a delivery only mutates its own node, and no MAC
        # transmits synchronously from one.
        mine = led.rx_tx[added] == batch.epoch
        ok = mine & ~led.rx_corrupt[added]
        ended = added[mine]
        led.rx_power[ended] = 0.0
        led.rx_tx[ended] = 0
        led.rx_corrupt[ended] = False
        led.d_frames_received[added[ok]] += 1
        mine_l = mine.tolist()
        ok_l = ok.tolist()
        # Physical busy-ness after this frame, frozen for the pass for
        # the same reason.
        busy = led.txing[added]
        if active:
            busy |= led.counts[added] > 0
        busy_l = busy.tolist()
        pw_l = batch.pw_list
        # One ordered pass over the receivers whose arrival began:
        # decoders deliver (unless corrupted) and always get the
        # carrier edge; bystanders get the edge only when this was
        # their last overlapping arrival and their MAC is waiting (the
        # carrier edge is a provable no-op for any other MAC).
        if arena is not None:
            n_disp, n_supp = self._walk_dcf(
                frame, batch.added_list, range(len(mine_l)), mine_l, ok_l,
                busy_l, pw_l, arena._macs, bulk, data_frame, nav_t)
            perf = self.perf
            perf.mac_edges_dispatched += n_disp
            perf.mac_edges_suppressed += n_supp
            src._transmit_done(frame)
            return
        wants_l = led.wants_medium[added].tolist()
        for k, nid in enumerate(batch.added_list):
            if mine_l[k]:
                mac = radios[nid].mac
                if mac is None:
                    continue
                if ok_l[k]:
                    if bulk and nid != frame_dst and not (
                        data_frame and mac.promiscuous
                    ):
                        # NAV-only reception: same conditional notify
                        # as _set_nav, then the end-of-arrival edge
                        # (gated exactly like the bystander branch).
                        if nav_t is not None:
                            mac.overhear_nav(nav_t)
                        if wants_l[k]:
                            mac.medium_changed()
                        continue
                    mac.on_frame_received(frame, pw_l[k])
                mac.medium_changed()
            elif wants_l[k] and not busy_l[k]:
                mac = radios[nid].mac
                if mac is not None:
                    mac.medium_changed()
        src._transmit_done(frame)

    def _end_clean(self, src, frame, batch, mb, arena, nav_t) -> None:
        """:meth:`_end_transmission` of a clean frame (arena attached)."""
        led = self._ledger
        added = batch.added
        led.counts[added] = 0
        led.strongest[added] = 0.0
        dec = mb.dec_idx
        led.rx_power[dec] = 0.0
        led.rx_tx[dec] = 0
        led.d_frames_received[dec] += 1
        macs = arena._macs
        dst = frame.dst
        added_l = batch.added_list
        try:
            at = added_l.index(dst)
        except ValueError:
            at = -1
        if led.n_waiting:
            walk = led.wants_medium[added]
            if at >= 0:
                walk[at] = True
            ks = walk.nonzero()[0].tolist()
        else:
            ks = [at] if at >= 0 else []
        # Decoders outside the walk are neither addressed nor waiting:
        # the frame's NAV is all they take (what _set_nav does there).
        if nav_t is not None:
            for nid in mb.dec_ids_list:
                mac = macs[nid]
                if nav_t > mac._nav and not mac._waiting and nid != dst:
                    mac._nav = nav_t
        n_disp, n_supp = self._walk_dcf(
            frame, added_l, ks, mb.dec_list, mb.dec_list, None,
            batch.pw_list, macs, True, frame.ftype == FrameType.DATA, nav_t)
        perf = self.perf
        perf.mac_edges_dispatched += n_disp
        # Every receiver outside the walk is a carrier edge proven
        # to be a no-op.
        perf.mac_edges_suppressed += n_supp + len(added_l) - len(ks)
        src._transmit_done(frame)

    def _walk_dcf(self, frame, added_l, ks, mine_l, ok_l, busy_l, pw_l,
                  macs, bulk, data_frame, nav_t):
        """Arena-mode receiver walk over positions *ks* of *added_l*;
        returns ``(dispatched, suppressed)`` edge counts.

        Freeze/credit/resume verdicts are derived from the MAC scalars
        and applied in receiver order (so heap insertion order — and
        every ``(time, seq)`` tie-break downstream — is untouched).
        Lazy per-receiver evaluation is exact: deliveries only mutate
        their own node, physical busy-ness (*busy_l*, None for all
        idle) is frozen for the pass because DCF never transmits
        synchronously from a delivery, and a decoder's own overhear
        never changes its waiting-ness — while ``medium_edge`` re-reads
        the live scalars it depends on.
        """
        now = self.sim._now
        frame_dst = frame.dst
        n_disp = 0
        n_supp = 0
        for k in ks:
            nid = added_l[k]
            mac = macs[nid]
            phys = busy_l is not None and busy_l[k]
            if mine_l[k]:
                if ok_l[k]:
                    if bulk and nid != frame_dst and not (
                        data_frame and mac.promiscuous
                    ):
                        # Inlined overhear: _set_nav's raise +
                        # self-notify chain plus the trailing
                        # medium_edge collapse, for a decoder, to
                        # "raise NAV, ensure the wake covers it" — a
                        # raised NAV makes busy-ness true outright, and
                        # once the wake covers nav the second
                        # notification provably no-ops. A decoder can't
                        # sit in _DIFS/_BACKOFF at its own frame end
                        # (its arrival kept the medium busy, so it froze
                        # on the busy edge); the defensive fallback runs
                        # the un-inlined overhear_nav + medium_edge
                        # chain if it ever happens.
                        s = mac._state
                        if nav_t is not None and nav_t > mac._nav:
                            if s == 1:  # _WAIT_MEDIUM
                                mac._nav = nav_t
                                if mac._nav_wake < nav_t:
                                    mac._ensure_nav_wake()
                                n_disp += 1
                            elif s == 0 or s > 3:  # not waiting
                                mac._nav = nav_t
                                n_supp += 1
                            else:  # impossible; exact fallback
                                mac.overhear_nav(nav_t)
                                n_disp += 1
                                mac.medium_edge(phys)
                        elif s == 1:
                            # medium_edge, s==_WAIT_MEDIUM branch: busy
                            # -> _ensure_nav_wake (a no-op when the wake
                            # already covers nav), idle ->
                            # _begin_contention.
                            n_disp += 1
                            nav = mac._nav
                            if phys or now < nav:
                                if now < nav and mac._nav_wake < nav:
                                    mac._ensure_nav_wake()
                            else:
                                mac._begin_contention()
                        elif s == 2 or s == 3:
                            n_disp += 1
                            mac.medium_edge(phys)
                        else:
                            n_supp += 1
                        continue
                    mac.on_frame_received(frame, pw_l[k])
                n_disp += 1
                mac.medium_edge(phys)
                continue
            # Bystander verdict against live (= pre-pass) state, each
            # branch what medium_changed would do: not waiting or still
            # physically busy -> nothing (medium_changed returns early
            # for these too); NAV-busy -> arm a wake unless one covers
            # nav (NAV-busy implies _WAIT_MEDIUM, since raising a NAV
            # freezes immediately; medium_edge covers the impossible
            # remainder defensively); fully idle -> _WAIT_MEDIUM begins
            # DIFS, _DIFS/_BACKOFF only react to *busy*.
            s = mac._state
            if not 1 <= s <= 3 or phys:
                n_supp += 1
                continue
            nav = mac._nav
            if nav > now:
                if mac._nav_wake < nav:
                    n_disp += 1
                    if s == 1:
                        mac._ensure_nav_wake()
                    else:
                        mac.medium_edge(False)
                else:
                    n_supp += 1
            elif s == 1:
                n_disp += 1
                mac._resume_contention()
            else:
                n_supp += 1
        return n_disp, n_supp
