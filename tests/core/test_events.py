"""Unit and property tests for the event queue."""

from hypothesis import given, strategies as st

from repro.core.events import Event, EventQueue


def test_push_pop_single():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    assert len(q) == 1
    popped = q.pop()
    assert popped is ev
    assert len(q) == 0
    assert q.pop() is None


def test_pop_orders_by_time():
    q = EventQueue()
    q.push(3.0, lambda: "c")
    q.push(1.0, lambda: "a")
    q.push(2.0, lambda: "b")
    times = [q.pop().time for _ in range(3)]
    assert times == [1.0, 2.0, 3.0]


def test_ties_fire_in_scheduling_order():
    q = EventQueue()
    first = q.push(5.0, lambda: None)
    second = q.push(5.0, lambda: None)
    assert q.pop() is first
    assert q.pop() is second


def test_cancelled_events_are_skipped():
    q = EventQueue()
    keep = q.push(1.0, lambda: None)
    drop = q.push(0.5, lambda: None)
    drop.cancel()
    assert len(q) == 1
    assert q.pop() is keep
    assert q.pop() is None


def test_direct_cancel_keeps_len_correct():
    """Event.cancel() called directly (not via Simulator.cancel) must
    keep the queue's live count accurate — the old API required a
    separate notify call and silently corrupted len() without it."""
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert len(q) == 2
    ev.cancel()
    assert len(q) == 1


def test_double_cancel_is_idempotent():
    """Regression: cancelling twice must not double-decrement."""
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    keep = q.push(2.0, lambda: None)
    ev.cancel()
    ev.cancel()
    ev.cancel()
    assert len(q) == 1
    assert q.pop() is keep
    assert len(q) == 0


def test_cancel_after_fire_is_noop():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    fired = q.pop()
    assert fired is ev and ev.fired
    ev.cancel()  # stale handle: must not touch accounting
    assert not ev.cancelled
    assert len(q) == 1


def test_peek_time_skips_cancelled():
    q = EventQueue()
    drop = q.push(0.5, lambda: None)
    q.push(2.0, lambda: None)
    drop.cancel()
    assert q.peek_time() == 2.0


def test_peek_time_empty_is_none():
    assert EventQueue().peek_time() is None


def test_pop_due_respects_horizon():
    q = EventQueue()
    q.push(1.0, lambda: None)
    late = q.push(5.0, lambda: None)
    assert q.pop_due(2.0).time == 1.0
    assert q.pop_due(2.0) is None
    assert len(q) == 1  # the late event stays queued
    assert q.pop_due(None) is late


def test_clear_empties_queue():
    q = EventQueue()
    q.push(1.0, lambda: None)
    ev = q.push(2.0, lambda: None)
    q.clear()
    assert len(q) == 0
    assert q.pop() is None
    ev.cancel()  # detached by clear(); must not underflow
    assert len(q) == 0


def test_event_repr_and_cancel_flag():
    ev = Event(1.5, 0, lambda: None, ())
    assert not ev.cancelled
    ev.cancel()  # queue-less event: flag only
    assert ev.cancelled


def test_event_ordering_dunder():
    a = Event(1.0, 0, lambda: None, ())
    b = Event(1.0, 1, lambda: None, ())
    c = Event(0.5, 2, lambda: None, ())
    assert a < b
    assert c < a


def test_compaction_purges_dead_entries():
    """Mass-cancelling must shrink the physical heap, not just len()."""
    q = EventQueue()
    events = [q.push(1.0 + i * 1e-3, lambda: None) for i in range(1000)]
    for i, ev in enumerate(events):
        if i % 5 != 0:
            ev.cancel()
    assert len(q) == 200
    assert q.perf.heap_compactions >= 1
    assert len(q._heap) < 500  # dead fraction was purged
    fired = 0
    while q.pop() is not None:
        fired += 1
    assert fired == 200


def test_freelist_never_steals_held_handles():
    q = EventQueue()
    held = q.push(1.0, lambda: None)
    held.cancel()
    assert q.pop() is None  # discards the dead entry
    fresh = q.push(2.0, lambda: None)
    assert fresh is not held  # every push allocates a fresh event


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=200))
def test_pop_sequence_is_sorted(times):
    q = EventQueue()
    for t in times:
        q.push(t, lambda: None)
    out = []
    while True:
        ev = q.pop()
        if ev is None:
            break
        out.append(ev.time)
    assert out == sorted(times)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100, allow_nan=False), st.booleans()),
        max_size=100,
    )
)
def test_cancellation_never_loses_live_events(entries):
    """Live events all come out; cancelled ones never do."""
    q = EventQueue()
    live = []
    for t, cancel in entries:
        ev = q.push(t, lambda: None)
        if cancel:
            ev.cancel()
        else:
            live.append(ev)
    assert len(q) == len(live)
    popped = []
    while True:
        ev = q.pop()
        if ev is None:
            break
        popped.append(ev)
    assert set(id(e) for e in popped) == set(id(e) for e in live)
