"""Cross-node DCF contention arena: shared timer wheel + busy-edge loop.

One :class:`ContentionArena` is shared by every :class:`~repro.mac.dcf.DcfMac`
on a channel. It attacks the two per-node costs that dominate saturated
collision domains:

* **Timer churn** — every contention round schedules (and mostly
  cancels) DIFS/backoff/NAV/SIFS timers across the whole cell. The
  arena owns a :class:`~repro.core.events.TimerWheel` that coalesces
  same-deadline timers behind one sentinel heap event; 802.11 deadlines
  are slot-quantized by construction (all third parties of one
  reservation compute the same ``frame_end + nav`` double), so whole
  cells wake on a single event.
* **Edge dispatch** — the channel used to call
  ``medium_changed()`` on every waiting MAC at every carrier edge.
  :meth:`ContentionArena.busy_edges` resolves a whole idle→busy fan-out
  in one inlined loop over the MACs' own scalar fields and touches only
  the nodes whose transition provably acts.

**Exactness.** The arena holds no MAC state: every read and write goes
to the ``DcfMac`` scalars, in the channel's per-receiver order, so
wheel/heap insertion order — and therefore every ``(time, seq)``
tie-break downstream — is identical to the per-node path. The
suppressed calls are exactly the ones ``medium_changed`` would have
no-opped; bit-identical metrics against per-node DCF timers (the engine
of ``build_network``; ``build_scenario`` attaches the arena to every DCF
run) are pinned by ``tests/scenario/test_determinism.py``.
"""

from __future__ import annotations

import math

from ..core.events import TimerWheel, WheelTimer
from .frames import Dot11

__all__ = ["ContentionArena"]

# DcfMac service states the arena reasons about (see repro.mac.dcf).
_WAIT_MEDIUM = 1
_DIFS = 2
_BACKOFF = 3


class ContentionArena:
    """Shared timer wheel + busy-edge resolve for one channel's DCF MACs.

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

    __slots__ = ("sim", "wheel", "_ledger", "_macs", "perf")

    def __init__(self, sim, ledger, radios):
        self.sim = sim
        self.wheel = TimerWheel(sim._queue)
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
        ``TimerWheel.schedule``: the same stores, in the same per-node
        order, without the Python call overhead that dominates
        saturated cells. No callback runs inside it, so the wheel/queue
        locals (including the seq counter) stay coherent throughout.
        """
        n = ids.shape[0]
        perf = self.perf
        # Cut the loop to the waiting members via the ledger's
        # wants_medium flag (it mirrors the 1..3 state band exactly).
        # A fully-waiting fan-out — the saturated-cell shape — skips
        # the mask copy and walks ids directly.
        w = self._ledger.wants_medium[ids]
        nw = int(w.sum())
        if nw == 0:
            perf.mac_edges_suppressed += n
            return
        if nw < n:
            ids = ids[w]
        now = self.sim._now
        macs = self._macs
        slot = Dot11.SLOT
        floor = math.floor
        wheel = self.wheel
        buckets = wheel._buckets
        queue = wheel._queue
        disp = 0
        armed = 0
        sentinels = 0
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
                if t is not None and not t._fired:
                    t._cancelled = True
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
            wake_t = now + (nav - now)
            # Inline wheel arm (same seq claim + bucket/sentinel
            # protocol as TimerWheel.schedule).
            seq = queue._seq
            queue._seq = seq + 1
            timer = WheelTimer(wake_t, seq, mac._nav_wake_fired, ())
            bucket = buckets.get(wake_t)
            if bucket is None:
                buckets[wake_t] = [timer]
                queue.push_at_seq(wake_t, wheel._fire, (wake_t,), seq)
                sentinels += 1
            else:
                bucket.append(timer)
            armed += 1
        perf.mac_edges_dispatched += disp
        perf.mac_edges_suppressed += n - disp
        perf.mac_timer_events += armed
        perf.mac_wheel_sentinels += sentinels
