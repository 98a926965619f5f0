"""Cross-node DCF contention arena: both carrier-edge halves, inlined.

One :class:`ContentionArena` is shared by every :class:`~repro.mac.dcf.DcfMac`
on a channel. A per-node PHY calls ``medium_changed()`` on every MAC at
every carrier edge and hands every intact decode to
``on_frame_received``; the arena resolves a whole fan-out in one
inlined loop over the MACs' own scalar fields and touches only the
nodes whose transition provably acts. :meth:`ContentionArena.busy_edges`
is the idle→busy half (a frame begins); :meth:`ContentionArena.end_edges`
is the busy→idle half (a frame ends), given the channel's per-receiver
decode and carrier verdicts. The channel owns the ledger and the
verdicts; NAV, deferral and backoff are decided here and in
:mod:`repro.mac.dcf` only. DCF timers are plain heap events either way.

**Exactness.** The arena holds no MAC state: every read and write goes
to the ``DcfMac`` scalars, in the channel's per-receiver order, so heap
insertion order — and therefore every ``(time, seq)`` tie-break
downstream — is identical to the per-node path. The suppressed calls
are exactly the ones ``medium_changed`` would have no-opped;
bit-identical metrics against the per-node path (the engine of
``build_network``; ``build_scenario`` attaches the arena to every DCF
run) are pinned by ``tests/scenario/test_determinism.py`` and
``tests/phy/test_clean_frames.py``.
"""

from __future__ import annotations

import math

import numpy as np

from ..net.packet import BROADCAST
from .dcf import _BACKOFF, _DIFS, _WAIT_MEDIUM
from .frames import Dot11, FrameType

__all__ = ["ContentionArena"]


class ContentionArena:
    """Carrier-edge resolve for one channel's DCF MACs.

    Parameters
    ----------
    sim:
        Owning simulator (supplies the event queue and perf counters).
    ledger:
        The channel's :class:`~repro.phy.radio.ArrivalLedger`; its
        ``wants_medium`` flags gate the busy-edge loop.
    radios:
        The channel's radio table; ``radios[i].mac`` must be a
        :class:`~repro.mac.dcf.DcfMac` for every node.
    """

    __slots__ = ("sim", "_ledger", "_macs", "perf", "snoops")

    def __init__(self, sim, ledger, radios):
        self.sim = sim
        self.perf = sim.perf
        self._ledger = ledger
        self._macs = [r.mac for r in radios]
        #: Whether any MAC snoops overheard DATA: such a frame's end
        #: then walks every receiver (see the channel's clean frames).
        self.snoops = any(mac.promiscuous for mac in self._macs)

    def busy_edges(self, ids) -> None:
        """Resolve idle→busy carrier edges for receiver array *ids*.

        Every node in *ids* just gained its first overlapping arrival
        (the channel guarantees ``was_idle``), so the medium is busy by
        construction and only the per-state reaction varies:

        * ``_DIFS`` / ``_BACKOFF`` — cancel the timer and freeze
          (crediting the backoff slots already counted down);
        * ``_WAIT_MEDIUM`` — already parked; the only possible action
          is arming a NAV wake, needed iff ``now < nav`` and no wake
          covers ``nav`` yet. Everything else is a proven no-op of
          ``medium_changed`` and is skipped.

        No deliveries interleave with this pass, so a node's state at
        entry stays valid until its own turn (a node's reaction only
        mutates that node).

        The loop inlines ``DcfMac.medium_edge(True)`` and
        ``_ensure_nav_wake``: the same stores and the same heap pushes,
        in the same per-node order, without the Python call overhead
        that dominates saturated cells.
        """
        n = ids.shape[0]
        perf = self.perf
        led = self._ledger
        # Cut the loop to the waiting members via the ledger's
        # wants_medium flag (it mirrors the 1..3 state band exactly).
        # Nobody waiting anywhere skips the gather; a fully-waiting
        # fan-out — the saturated-cell shape — skips the mask copy.
        if not led.n_waiting:
            perf.mac_edges_suppressed += n
            return
        w = led.wants_medium[ids]
        nw = np.count_nonzero(w)
        if nw == 0:
            perf.mac_edges_suppressed += n
            return
        if nw < n:
            ids = ids[w]
        now = self.sim._now
        macs = self._macs
        slot = Dot11.SLOT
        floor = math.floor
        push = self.sim._queue.push
        disp = 0
        for nid in ids.tolist():
            mac = macs[nid]
            s = mac._state
            if s == _WAIT_MEDIUM:
                nav = mac._nav
                if not (now < nav and mac._nav_wake < nav):
                    continue
                disp += 1
            elif s == _DIFS or s == _BACKOFF:
                disp += 1
                t = mac._timer
                if t is not None:
                    t.cancel()
                mac._timer = None
                if s == _BACKOFF:
                    credit = int(floor((now - mac._backoff_start)
                                       / slot + 1e-9))
                    slots = mac._backoff_slots - credit
                    mac._backoff_slots = slots if slots > 0 else 0
                # _DIFS/_BACKOFF -> _WAIT_MEDIUM stays inside the
                # waiting band, so the radio wants_medium flag is
                # untouched (what _set_state would conclude).
                mac._state = _WAIT_MEDIUM
                nav = mac._nav
                if not (now < nav and mac._nav_wake < nav):
                    continue
            else:
                continue
            mac._nav_wake = nav
            # Wake deadline is now + (nav - now), NOT nav: the addition
            # can round one ulp below nav, and _nav_wake_fired's
            # residual re-arm depends on reproducing that exact double
            # (see dcf).
            push(now + (nav - now), mac._nav_wake_fired, ())
        perf.mac_edges_dispatched += disp
        perf.mac_edges_suppressed += n - disp

    def end_edges(self, frame, added_l, ks, mine_l, ok_l, busy_l, pw_l,
                  nav_ids=None) -> None:
        """Resolve the end of *frame* at positions *ks* of *added_l*.

        Per receiver position the channel hands over *mine_l* (the
        decode it ends), *ok_l* (intact), *busy_l* (physically busy
        afterwards; None: nobody) and *pw_l* (delivery power); receivers
        outside *ks* are proven no-op edges. *nav_ids* (a clean frame's
        decoders) are those outside the walk that only take the NAV.

        Each branch does what the per-node chain — ``on_frame_received``
        for an intact decode, then ``medium_edge`` — would: a third
        party overhearing a non-broadcast frame it does not snoop only
        takes the NAV; an idle bystander parked in ``_WAIT_MEDIUM`` arms
        a NAV wake or resumes. Every other receiver runs the chain
        itself, the two cases that cannot happen included (a decoder in
        ``_DIFS``/``_BACKOFF`` froze on its frame's busy edge, and a
        raised NAV freezes those states at once). Lazy evaluation is
        exact: deliveries only mutate their own node, and DCF never
        transmits synchronously from one, so busy-ness stays frozen.
        """
        sim = self.sim
        now = sim._now
        macs = self._macs
        dst = frame.dst
        unicast = dst != BROADCAST
        ftype = frame.ftype
        data_frame = unicast and ftype == FrameType.DATA
        nav_t = now + frame.nav if unicast and ftype != FrameType.ACK else None
        if nav_ids is not None and nav_t is not None:
            for nid in nav_ids:
                mac = macs[nid]
                if nav_t > mac._nav and not mac._waiting and nid != dst:
                    mac._nav = nav_t
        schedule = sim.schedule
        n_disp = 0
        n_supp = len(added_l) - len(ks)
        for k in ks:
            nid = added_l[k]
            mac = macs[nid]
            phys = busy_l is not None and busy_l[k]
            if mine_l[k]:
                if ok_l[k]:
                    if unicast and nid != dst and not (
                        data_frame and mac.promiscuous
                    ):
                        # Overhear: _set_nav's raise + self-notify chain
                        # plus the trailing medium_edge collapse to
                        # "raise NAV, ensure the wake covers it" — a
                        # raised NAV makes busy-ness true outright, and
                        # once the wake covers nav the second
                        # notification provably no-ops.
                        s = mac._state
                        if s == _WAIT_MEDIUM:
                            n_disp += 1
                            nav = mac._nav
                            if nav_t is not None and nav_t > nav:
                                mac._nav = nav = nav_t
                            elif not (phys or now < nav):
                                mac._begin_contention()
                                continue
                            if now < nav and mac._nav_wake < nav:
                                mac._ensure_nav_wake()
                            continue
                        if s != _DIFS and s != _BACKOFF:
                            if nav_t is not None and nav_t > mac._nav:
                                mac._nav = nav_t
                            n_supp += 1
                            continue
                    mac.on_frame_received(frame, pw_l[k])
            else:
                s = mac._state
                if s < _WAIT_MEDIUM or s > _BACKOFF or phys:
                    n_supp += 1
                    continue
                nav = mac._nav
                if s == _WAIT_MEDIUM:
                    if now < nav:
                        if mac._nav_wake < nav:
                            n_disp += 1
                            mac._ensure_nav_wake()
                        else:
                            n_supp += 1
                    else:
                        # _begin_contention's idle branch, the medium
                        # proven idle: _WAIT_MEDIUM -> _DIFS stays in the
                        # waiting band, so wants_medium is untouched.
                        n_disp += 1
                        mac._state = _DIFS
                        mac._timer = schedule(Dot11.DIFS, mac._difs_done)
                    continue
                if not now < nav:
                    n_supp += 1
                    continue
            # The per-node chain, and the exact fallback (see above).
            n_disp += 1
            mac.medium_edge(phys)
        perf = self.perf
        perf.mac_edges_dispatched += n_disp
        perf.mac_edges_suppressed += n_supp
