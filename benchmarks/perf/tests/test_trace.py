"""Span arithmetic of trace.py on toy classes, and scheduler wrapping on the real queue."""

import pytest

from trace import LAYERS, Tracer

MAC, ROUTING, PHY = (LAYERS.index(name) for name in ("mac", "routing", "phy"))


class FakeClock:
    """Advances one second per reading, so durations are exact integers."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class Mac:
    def __init__(self, upper):
        self.upper = upper

    def receive(self, x):
        self.helper()
        return self.upper.deliver(x) + 1

    def helper(self):
        """Same-layer call: must not open a span."""

    def boom(self):
        raise ValueError("inside a span")


class Routing:
    def deliver(self, x):
        return x * 2


ENTRY_POINTS = [(Mac, "mac", ("receive", "helper", "boom")),
                (Routing, "routing", ("deliver", "not_defined_here"))]


def test_nesting_and_self_time():
    tracer = Tracer(clock=FakeClock())
    with tracer:
        tracer.install(ENTRY_POINTS, [])
        assert Mac(Routing()).receive(5) == 11
    # mac opens at t=1, routing spans 2..3, mac closes at t=4.
    assert list(tracer.layer) == [MAC, ROUTING]
    assert list(tracer.parent) == [-1, 0]
    assert (tracer.start[0], tracer.end[0]) == (1.0, 4.0)
    assert (tracer.start[1], tracer.end[1]) == (2.0, 3.0)
    ledger = tracer.ledger()
    assert ledger["covered_s"] == 3.0
    assert ledger["layers"]["mac"] == {"self_s": 2.0, "calls": 1}
    assert ledger["layers"]["routing"] == {"self_s": 1.0, "calls": 1}
    assert sum(row["self_s"] for row in ledger["layers"].values()) == ledger["covered_s"]


def test_same_layer_reentry_opens_no_span():
    tracer = Tracer(clock=FakeClock())
    with tracer:
        tracer.install(ENTRY_POINTS, [])
        mac = Mac(Routing())
        mac.receive(1)
        mac.helper()  # from outside any span: this one is a boundary
    assert list(tracer.layer) == [MAC, ROUTING, MAC]
    assert list(tracer.parent) == [-1, 0, -1]


def test_exception_closes_the_span():
    tracer = Tracer(clock=FakeClock())
    with tracer:
        tracer.install(ENTRY_POINTS, [])
        with pytest.raises(ValueError):
            Mac(None).boom()
        Routing().deliver(1)
    assert tracer.end[0] > tracer.start[0]
    # The stack unwound: the next span is a root again.
    assert list(tracer.parent) == [-1, -1]


def test_ledger_by_range():
    tracer = Tracer(clock=FakeClock())
    with tracer:
        tracer.install(ENTRY_POINTS, [])
        Routing().deliver(1)
        cut = tracer.mark()
        Mac(Routing()).receive(1)
    first, second = tracer.ledger(0, cut), tracer.ledger(cut, tracer.mark())
    assert first["layers"]["routing"]["calls"] == 1
    assert first["layers"]["mac"]["calls"] == 0
    assert second["layers"]["mac"] == {"self_s": 2.0, "calls": 1}
    assert tracer.head(cut, 10)["parent"] == [-1, cut]


def test_wrappers_fully_removed():
    before = {name: Mac.__dict__[name] for name in ("receive", "helper", "boom")}
    tracer = Tracer()
    tracer.install(ENTRY_POINTS, [])
    assert Mac.__dict__["receive"] is not before["receive"]
    assert "not_defined_here" not in Routing.__dict__
    tracer.remove()
    assert {name: Mac.__dict__[name] for name in before} == before
    Mac(Routing()).receive(1)
    assert tracer.mark() == 0


def _drain(queue):
    while (ev := queue.pop()) is not None:
        ev.fn(*ev.args)


def _schedule_mixed(order):
    """Heap events and wheel timers sharing instants; returns the queue."""
    from repro.core.events import EventQueue, TimerWheel

    queue = EventQueue()
    wheel = TimerWheel(queue)

    def mac_timer(tag):
        order.append(tag)

    def routing_timer(tag):
        order.append(tag)

    mac_timer.__module__ = "repro.mac.toy"
    routing_timer.__module__ = "repro.routing.toy"
    queue.push(2.0, routing_timer, ("r2",))
    wheel.schedule(1.0, mac_timer, ("w1a",))
    queue.push(1.0, routing_timer, ("r1",))
    wheel.schedule(1.0, mac_timer, ("w1b",))
    wheel.schedule(2.0, mac_timer, ("w2",)).cancel()
    queue.push(1.0, routing_timer, ("r1b",))
    wheel.schedule(1.0, mac_timer, ("w1c",))
    return queue


def test_scheduled_callbacks_keep_time_seq_order_and_owner():
    from repro.core.events import EventQueue, TimerWheel

    plain = []
    _drain(_schedule_mixed(plain))

    traced = []
    tracer = Tracer()
    with tracer:
        tracer.install([], [(EventQueue, "push"), (EventQueue, "push_at_seq"),
                            (TimerWheel, "schedule")])
        _drain(_schedule_mixed(traced))
    assert traced == plain == ["w1a", "r1", "w1b", "r1b", "w1c", "r2"]
    # Wheel sentinels belong to repro.core and run with no span open, so
    # each callback opened one span under the sentinel's, charged to its owner.
    owners = [LAYERS[i] for i in tracer.layer if LAYERS[i] != "core"]
    assert owners == ["mac", "routing", "mac", "routing", "mac", "routing"]
    assert "push" in EventQueue.__dict__ and not hasattr(EventQueue.push, "__wrapped__")
