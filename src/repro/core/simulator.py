"""The simulation kernel: clock + event loop.

A :class:`Simulator` owns the event queue, the simulation clock and the
named RNG streams. Components hold a reference to it and
interact exclusively through :meth:`schedule` / :meth:`schedule_at` and
the ``now`` property — there is no global state, so multiple simulators
can run side by side in one process (the sweep runner relies on this).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .drops import DropLedger
from .errors import SchedulingError
from .events import Event, EventQueue
from .perfcounters import PerfCounters
from .rng import RngStreams

__all__ = ["Simulator"]


class Simulator:
    """Discrete-event simulation engine.

    Parameters
    ----------
    seed:
        Root seed for the scenario's :class:`RngStreams`.

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.schedule(2.5, fired.append, "hello")
    >>> sim.run(until=10.0)
    >>> (sim.now, fired)
    (10.0, ['hello'])
    """

    def __init__(self, seed: int = 0) -> None:
        #: Hot-path instrumentation; every layer built on this simulator
        #: receives it at construction.
        self.perf = PerfCounters()
        self._queue = EventQueue(self.perf)
        self._now = 0.0
        self._running = False
        self._stopped = False
        self.rng = RngStreams(seed)
        #: Count of events actually fired; useful for performance reporting.
        self.events_processed = 0
        #: Every terminal packet drop, counted by reason; handed to
        #: each layer at construction, like ``perf``.
        self.drops = DropLedger()

    @property
    def flight(self):
        """Optional :class:`repro.obs.flight.FlightRecorder`, held by the
        drop ledger. ``None`` (the default) leaves every per-packet
        lifecycle hook dead, so a disabled recorder costs nothing and
        changes nothing."""
        return self.drops.flight

    @flight.setter
    def flight(self, recorder) -> None:
        self.drops.flight = recorder

    # ------------------------------------------------------------------ clock

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def pending(self) -> int:
        """Number of live events still scheduled."""
        return len(self._queue)

    # -------------------------------------------------------------- scheduling

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to fire *delay* seconds from now."""
        if delay < 0.0:
            raise SchedulingError(f"cannot schedule {delay!r}s in the past")
        return self._queue.push(self._now + delay, fn, args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to fire at absolute simulation *time*."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at t={time!r} < now={self._now!r}"
            )
        return self._queue.push(time, fn, args)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel *event* if it is still pending; ``None`` is accepted.

        Delegates to :meth:`Event.cancel`, which is idempotent and keeps
        the queue's live count correct (already-fired or double-cancelled
        events are no-ops).
        """
        if event is not None:
            event.cancel()

    # -------------------------------------------------------------- execution

    def run(self, until: Optional[float] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time (the clock is then
            set to exactly *until*). If ``None``, runs until the queue
            drains or :meth:`stop` is called.
        """
        if self._running:
            raise SchedulingError("simulator is already running (reentrant run)")
        self._running = True
        self._stopped = False
        queue = self._queue
        processed = 0
        try:
            while not self._stopped:
                ev = queue.pop_due(until)
                if ev is None:
                    break
                self._now = ev.time
                processed += 1
                ev.fn(*ev.args)
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self.events_processed += processed
            self._running = False

    def stop(self) -> None:
        """Request the event loop to stop after the current event."""
        self._stopped = True

    def reset(self) -> None:
        """Clear all pending events and rewind the clock to zero.

        RNG streams are *not* reset (create a fresh Simulator for a truly
        independent run); this is intended for test fixtures.
        """
        self._queue.clear()
        self._now = 0.0
        self._stopped = False
        self.events_processed = 0
