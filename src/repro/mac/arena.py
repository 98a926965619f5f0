"""Cross-node DCF contention arena: the inlined busy-edge loop.

One :class:`ContentionArena` is shared by every :class:`~repro.mac.dcf.DcfMac`
on a channel. The channel used to call ``medium_changed()`` on every
waiting MAC at every carrier edge; :meth:`ContentionArena.busy_edges`
resolves a whole idle→busy fan-out in one inlined loop over the MACs'
own scalar fields and touches only the nodes whose transition provably
acts. The channel's end-of-frame pass inlines the busy→idle half the
same way (``Channel._end_transmission``). DCF timers are plain heap
events either way.

**Exactness.** The arena holds no MAC state: every read and write goes
to the ``DcfMac`` scalars, in the channel's per-receiver order, so heap
insertion order — and therefore every ``(time, seq)`` tie-break
downstream — is identical to the per-node path. The suppressed calls
are exactly the ones ``medium_changed`` would have no-opped;
bit-identical metrics against the per-node path (the engine of
``build_network``; ``build_scenario`` attaches the arena to every DCF
run) are pinned by ``tests/scenario/test_determinism.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .frames import Dot11

__all__ = ["ContentionArena"]

# DcfMac service states the arena reasons about (see repro.mac.dcf).
_WAIT_MEDIUM = 1
_DIFS = 2
_BACKOFF = 3


class ContentionArena:
    """Busy-edge resolve for one channel's DCF MACs.

    Parameters
    ----------
    sim:
        Owning simulator (supplies the event queue and perf counters).
    ledger:
        The channel's :class:`~repro.phy.radio.ArrivalLedger`; its
        ``wants_medium`` flags gate the busy-edge loop.
    radios:
        The channel's radio table; ``radios[i].mac`` must be an
        arena-safe DCF for every node.
    """

    __slots__ = ("sim", "_ledger", "_macs", "perf")

    def __init__(self, sim, ledger, radios):
        self.sim = sim
        self.perf = sim.perf
        self._ledger = ledger
        self._macs = [r.mac for r in radios]

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
