"""Event objects and the pending-event queue.

The kernel is callback-based (like ns-2): an :class:`Event` wraps a
callable plus its arguments and a firing time. :class:`EventQueue` is a
binary heap ordered by ``(time, seq)`` where ``seq`` is a monotonically
increasing tie-breaker, so events scheduled for the same instant fire in
scheduling order (deterministic FIFO semantics).

Cancellation is lazy: :meth:`Event.cancel` flags the event and the queue
discards flagged entries when they reach the top. This makes cancel O(1),
which matters because timers (retransmit, route timeout, backoff) are
cancelled far more often than they fire. **Compaction** keeps the lazy
scheme honest under the 80 %-cancelled retransmit-timer pattern: when
dead (cancelled but still heaped) entries exceed half the heap, the
heap is rebuilt without them, bounding memory at ~2x the live count
instead of growing with total cancellations.

Every :class:`Event` (and every :class:`WheelTimer`) is allocated once
and never reused, so a handle a layer keeps always describes the event
it was given, however long it is held.

Cancellation is idempotent and self-accounting: an event knows its
queue, so ``Event.cancel()`` keeps ``len(queue)`` correct whether it is
called directly or through ``Simulator.cancel``, and calling it twice
(or on an already-fired event) is a no-op.

:class:`TimerWheel` can sit on top of the queue for high-churn timer
populations: timers sharing one exact deadline are coalesced into a
bucket backed by a single sentinel heap event, while preserving the
queue's exact ``(time, seq)`` total order — see the class docstring
for the re-push protocol that makes the coalescing order-transparent.
No engine path uses it: DCF's timers are plain heap events, which
measured faster end to end. It stays, with :meth:`EventQueue.push_at_seq`
and :meth:`EventQueue.peek_entry`, because ``benchmarks/perf/trace.py``
imports and wraps it by name.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from .perfcounters import PerfCounters

__all__ = ["Event", "EventQueue", "TimerWheel", "WheelTimer"]

#: Compaction triggers when dead entries exceed both this floor and the
#: live count (i.e. more than half the heap is garbage).
_COMPACT_MIN_DEAD = 64


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Simulation time (seconds) at which the event fires.
    seq:
        Tie-breaker assigned by the queue; total order is ``(time, seq)``.
    fn:
        Callable invoked as ``fn(*args)`` when the event fires.
    """

    __slots__ = ("time", "seq", "fn", "args", "_cancelled", "_fired", "_queue")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self._cancelled = False
        self._fired = False
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Cancel this event; idempotent and safe after firing.

        A pending event is flagged for lazy discard and its queue's live
        count is decremented exactly once. Cancelling an event that
        already fired (or was already cancelled) does nothing, so stale
        timer handles never corrupt the queue's accounting.
        """
        if self._cancelled or self._fired:
            return
        self._cancelled = True
        queue = self._queue
        if queue is not None:
            queue._on_cancel()

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called (before firing)."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """Whether this event has already been popped and executed."""
        return self._fired

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self._cancelled else (" fired" if self._fired else "")
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6f} seq={self.seq} fn={name}{state}>"


class EventQueue:
    """Binary-heap priority queue of :class:`Event` objects.

    Heap entries are ``(time, seq, event)`` tuples: the unique ``seq``
    guarantees comparisons never reach the event object, so ordering is
    resolved entirely by C-level float/int comparisons (profiling showed
    Python-level ``Event.__lt__`` dominating the kernel otherwise).

    *perf* is the owning simulator's counter block; a queue built on its
    own counts into a fresh one.
    """

    __slots__ = ("_heap", "_seq", "_live", "_dead", "perf")

    def __init__(self, perf: Optional[PerfCounters] = None) -> None:
        self._heap: list = []
        self._seq = 0
        self._live = 0
        #: Cancelled entries still sitting in the heap.
        self._dead = 0
        self.perf = perf or PerfCounters()

    def __len__(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._live

    def push(self, time: float, fn: Callable[..., Any], args: tuple = ()) -> Event:
        """Schedule ``fn(*args)`` at absolute *time* and return the event."""
        seq = self._seq
        ev = Event(time, seq, fn, args)
        ev._queue = self
        heapq.heappush(self._heap, (time, seq, ev))
        self._seq = seq + 1
        self._live += 1
        return ev

    def push_at_seq(
        self, time: float, fn: Callable[..., Any], args: tuple, seq: int
    ) -> Event:
        """Push an event carrying a pre-claimed *seq*.

        The caller guarantees *seq* is unique: it was claimed from this
        queue's counter by advancing ``_seq`` itself, as
        :meth:`TimerWheel.schedule` does. The counter is not advanced
        here.
        """
        ev = Event(time, seq, fn, args)
        ev._queue = self
        heapq.heappush(self._heap, (time, seq, ev))
        self._live += 1
        return ev

    # ------------------------------------------------------------- internals

    def _on_cancel(self) -> None:
        """Event-side notification: one pending event was cancelled."""
        self._live -= 1
        self._dead += 1
        if self._dead > _COMPACT_MIN_DEAD and self._dead > self._live:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without dead entries (O(n) heapify)."""
        self._heap = [entry for entry in self._heap if not entry[2]._cancelled]
        heapq.heapify(self._heap)
        self._dead = 0
        self.perf.heap_compactions += 1

    # --------------------------------------------------------------- popping

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if empty.

        Cancelled events encountered at the top are silently discarded.
        """
        heap = self._heap
        while heap:
            ev = heapq.heappop(heap)[2]
            if not ev._cancelled:
                self._live -= 1
                ev._fired = True
                return ev
            self._dead -= 1
        return None

    def pop_due(self, until: Optional[float]) -> Optional[Event]:
        """Pop the next live event firing at or before *until*.

        Returns ``None`` when the queue is empty or the next live event
        lies beyond *until* (which is then left in place). This fuses the
        ``peek_time`` + ``pop`` pair the run loop would otherwise issue,
        walking past each dead entry once instead of twice.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2]._cancelled:
                heapq.heappop(heap)
                self._dead -= 1
                continue
            if until is not None and entry[0] > until:
                return None
            heapq.heappop(heap)
            self._live -= 1
            ev = entry[2]
            ev._fired = True
            return ev
        return None

    def peek_time(self) -> Optional[float]:
        """Firing time of the next live event, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0][2]._cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else None

    def peek_entry(self) -> Optional[tuple]:
        """``(time, seq)`` of the next live event, or ``None`` if empty.

        Used by :class:`TimerWheel` to detect heap events that must fire
        between two coalesced timers of the same bucket.
        """
        heap = self._heap
        while heap and heap[0][2]._cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        if not heap:
            return None
        entry = heap[0]
        return (entry[0], entry[1])

    def clear(self) -> None:
        """Drop every pending event."""
        for entry in self._heap:
            entry[2]._queue = None
        self._heap.clear()
        self._live = 0
        self._dead = 0


class WheelTimer:
    """A timer coalesced into a :class:`TimerWheel` bucket.

    Duck-types :class:`Event` for the handle operations MAC code uses
    (``cancel()``, ``cancelled``, ``fired``) so ``Simulator.cancel`` and
    ``self._timer = ...`` bookkeeping work unchanged, but never enters
    the heap itself: cancellation is a pure flag flip with no queue
    accounting and no compaction pressure.
    """

    __slots__ = ("time", "seq", "fn", "args", "_cancelled", "_fired")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self._cancelled = False
        self._fired = False

    def cancel(self) -> None:
        """Flag this timer for discard; idempotent, safe after firing."""
        if not self._fired:
            self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def fired(self) -> bool:
        return self._fired


class TimerWheel:
    """Deadline-bucketed timer store feeding one sentinel per bucket.

    High-churn timer populations (a DCF contention round schedules and
    mostly cancels DIFS/backoff/NAV timers across a whole collision
    domain) pay two heap costs per timer: the O(log n) push and the
    lazy-cancel garbage it leaves behind. The wheel replaces
    both with a dict keyed by the **exact** float deadline: timers for
    the same instant append to one list, and only the bucket's first
    timer pushes a heap event (the sentinel) that later drains the
    bucket in order.

    Buckets are keyed by exact ``float`` deadlines — no rounding is
    applied to firing times, so coalescing never perturbs simulation
    timestamps. Coalescing still happens constantly because 802.11
    deadlines are slot-quantized by construction: independent nodes
    computing ``now + DIFS`` or ``frame_end + nav`` at the same instant
    produce bit-equal doubles.

    Order-exactness protocol (the wheel is a pure optimization; firing
    order must be indistinguishable from per-timer heap events):

    * each timer claims a seq from the shared :class:`EventQueue`
      counter at schedule time, exactly as a heap push would;
    * the sentinel is pushed via :meth:`EventQueue.push_at_seq` carrying
      the *first* timer's seq, so it sorts exactly where that timer
      would have;
    * at fire time, before dispatching each bucket entry, the heap head
      is peeked: if a foreign event shares the deadline with a smaller
      seq, the sentinel is re-pushed at the entry's seq and dispatch
      resumes after the foreign event runs.

    Contract: deadlines must be strictly in the future (every DCF
    contention timer is ≥ SIFS = 10 µs away, which double precision
    keeps distinct from ``now`` at any simulated timescale). Scheduling *at* the
    current instant while that instant's bucket is mid-dispatch would
    append to a bucket that is already being drained.
    """

    __slots__ = ("_queue", "_buckets", "perf")

    def __init__(self, queue: EventQueue) -> None:
        self._queue = queue
        #: deadline -> list of WheelTimer in schedule (= seq) order.
        self._buckets: dict = {}
        #: The queue's counter block (the owning simulator's).
        self.perf = queue.perf

    def __len__(self) -> int:
        """Number of pending (non-cancelled) timers across all buckets."""
        return sum(
            sum(1 for t in bucket if not t._cancelled)
            for bucket in self._buckets.values()
        )

    def schedule(
        self, time: float, fn: Callable[..., Any], args: tuple = ()
    ) -> WheelTimer:
        """Register ``fn(*args)`` at absolute *time*; returns the handle."""
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        timer = WheelTimer(time, seq, fn, args)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [timer]
            queue.push_at_seq(time, self._fire, (time,), seq)
            self.perf.mac_wheel_sentinels += 1
        else:
            bucket.append(timer)
        self.perf.mac_timer_events += 1
        return timer

    def _fire(self, time: float) -> None:
        """Sentinel callback: drain the bucket for *time* in seq order."""
        bucket = self._buckets.pop(time)
        queue = self._queue
        heap = queue._heap
        i = 0
        n = len(bucket)
        while i < n:
            timer = bucket[i]
            if timer._cancelled:
                i += 1
                continue
            # Cheap pre-check before the purging peek: the sim already
            # drained everything ordered before this sentinel, so the
            # heap head's time is >= ours and a plain equality test
            # rules out foreign same-instant events in the common case.
            # If compaction swaps the heap list mid-drain, the cached
            # list is a superset of the live one (with the same lower
            # bound), so the test can only false-positive — and the
            # peek below re-reads the live queue.
            if heap and heap[0][0] == time:
                head = queue.peek_entry()
                if head is not None and head[0] == time and head[1] < timer.seq:
                    # A foreign heap event shares this instant and was
                    # scheduled before this timer: yield to it, then
                    # resume via a fresh sentinel sorted at this
                    # timer's own seq.
                    self._buckets[time] = bucket[i:]
                    queue.push_at_seq(time, self._fire, (time,), timer.seq)
                    self.perf.mac_wheel_sentinels += 1
                    return
            i += 1
            timer._fired = True
            timer.fn(*timer.args)
