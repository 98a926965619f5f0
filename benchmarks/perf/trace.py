"""Outside-in span tracer for the per-layer ledger.

Nothing under ``src/`` knows about this file. :meth:`Tracer.install`
replaces, at class level, the public entry points of each layer with
wrappers that record a span ``(layer, start, end, parent)``; it must run
*before* ``build_scenario`` so bound methods cached during construction
(receive hooks, ``on_send`` callbacks) are already the wrapped ones.
Scheduled callbacks are spanned at dispatch: ``EventQueue.push``,
``EventQueue.push_at_seq`` and ``TimerWheel.schedule`` are wrapped so the
callback they store runs inside a span charged to the layer whose module
defines it, which is what attributes DCF timer work to ``mac`` and
routing timers to ``routing`` instead of to the event loop.

Re-entering the layer already on top of the stack opens no span, so a
span boundary is always a layer boundary and a layer's self time is its
spans' durations minus the durations of their direct children.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

__all__ = ["LAYERS", "Tracer", "repro_entry_points"]

#: Ledger rows, in print order. A layer is a package of ``repro``.
LAYERS = ("core", "mobility", "phy", "mac", "routing", "net", "traffic", "stats")
_LAYER_ID = {name: i for i, name in enumerate(LAYERS)}


def layer_of_module(module: str) -> int:
    """Layer id owning *module* (``repro.mac.dcf`` -> mac); core otherwise."""
    parts = (module or "").split(".")
    if len(parts) > 1 and parts[0] == "repro":
        return _LAYER_ID.get(parts[1], 0)
    return 0


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self, clock=time.perf_counter):
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._clock = clock
        #: Open span indices and their layers; the -1 sentinels mean
        #: "no parent" / "no layer" so wrappers never test for empty.
        self._open = [-1]
        self._layers = [-1]
        self._callback_layer: dict = {}
        self._patched: list = []

    # ------------------------------------------------------------ wrappers

    def wrap(self, fn, lid: int):
        """*fn* running inside a span of layer *lid*."""
        layer, start, end, parent = self.layer, self.start, self.end, self.parent
        open_, layers, clock = self._open, self._layers, self._clock

        def spanned(*args, **kwargs):
            if layers[-1] == lid:
                return fn(*args, **kwargs)
            idx = len(layer)
            layer.append(lid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(idx)
            layers.append(lid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()
                layers.pop()

        spanned.__wrapped__ = fn
        return spanned

    def _dispatch(self, lid: int, fn, args):
        """Run a scheduled callback inside a span of its owner's layer.

        The same open/close sequence as :meth:`wrap`, written out a
        second time: a shared helper would add a call to each of a
        million spans per run, and that cost lands in the ledger.
        """
        layers = self._layers
        if layers[-1] == lid:
            return fn(*args)
        layer, open_, clock = self.layer, self._open, self._clock
        idx = len(layer)
        layer.append(lid)
        self.parent.append(open_[-1])
        self.end.append(0.0)
        open_.append(idx)
        layers.append(lid)
        self.start.append(clock())
        try:
            return fn(*args)
        finally:
            self.end[idx] = clock()
            open_.pop()
            layers.pop()

    def _owner(self, fn) -> int:
        key = getattr(fn, "__func__", fn)
        memo = self._callback_layer
        lid = memo.get(key)
        if lid is None:
            lid = memo[key] = layer_of_module(getattr(key, "__module__", ""))
        return lid

    def wrap_scheduler(self, fn):
        """A ``(self, time, callback, args=(), ...)`` scheduling method
        whose stored callback is spanned at dispatch.

        ``(time, seq)`` is left to the wrapped method, so firing order
        cannot change.
        """
        dispatch, owner = self._dispatch, self._owner

        def scheduling(self_, when, callback, args=(), *rest):
            return fn(self_, when, dispatch, (owner(callback), callback, args), *rest)

        scheduling.__wrapped__ = fn
        return scheduling

    # ------------------------------------------------------- install/remove

    def patch(self, owner, name: str, wrapper) -> None:
        """Replace ``owner.name`` (a class attribute) until :meth:`remove`."""
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def install(self, entry_points, schedulers) -> None:
        """Wrap ``(class, layer, names)`` rows and ``(class, name)`` schedulers.

        A name is wrapped on *class* only when the class itself defines
        it, so an inherited method is spanned once, where it lives.
        """
        for cls, layer, names in entry_points:
            lid = _LAYER_ID[layer]
            for name in names:
                if name in cls.__dict__:
                    self.patch(cls, name, self.wrap(cls.__dict__[name], lid))
        for cls, name in schedulers:
            self.patch(cls, name, self.wrap_scheduler(cls.__dict__[name]))

    def remove(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # --------------------------------------------------------------- ledger

    def mark(self) -> int:
        """Number of spans recorded so far (a scenario boundary)."""
        return len(self.layer)

    def ledger(self, lo: int = 0, hi: int = None) -> dict:
        """Per-layer self time and span count for spans ``lo:hi``.

        Spans in the range must be closed and their parents must lie in
        the range too (true between two :meth:`mark` calls taken outside
        any span).
        """
        hi = len(self.layer) if hi is None else hi
        # Slices copy, so the live arrays stay free to grow.
        layer = np.frombuffer(self.layer[lo:hi], dtype=np.int8)
        dur = (np.frombuffer(self.end[lo:hi], dtype=np.float64)
               - np.frombuffer(self.start[lo:hi], dtype=np.float64))
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int64)
        self_s = dur.copy()
        child = parent >= 0
        np.subtract.at(self_s, parent[child] - lo, dur[child])
        n = len(LAYERS)
        per_layer = np.bincount(layer, weights=self_s, minlength=n)
        calls = np.bincount(layer, minlength=n)
        return {
            "covered_s": float(dur[~child].sum()),
            "layers": {
                name: {"self_s": float(per_layer[i]), "calls": int(calls[i])}
                for i, name in enumerate(LAYERS)
            },
        }

    def head(self, lo: int, count: int) -> dict:
        """The first *count* raw spans from *lo*, as columns."""
        hi = min(lo + count, len(self.layer))
        t0 = self.start[lo] if hi > lo else 0.0
        return {
            "first_index": lo,
            "layer": [LAYERS[i] for i in self.layer[lo:hi]],
            "start_us": [round((t - t0) * 1e6, 3) for t in self.start[lo:hi]],
            "end_us": [round((t - t0) * 1e6, 3) for t in self.end[lo:hi]],
            "parent": list(self.parent[lo:hi]),
        }


def repro_entry_points():
    """The wrapped surface of ``repro``: ``(entry_points, schedulers)``.

    Public methods of each layer, plus the four private ``DcfMac``
    methods that other layers call or arm directly: the batched channel
    resolve loop calls ``_ensure_nav_wake`` / ``_begin_contention`` /
    ``_resume_contention`` inline, and the arena arms
    ``_nav_wake_fired`` on the wheel without going through
    ``TimerWheel.schedule``. Left unwrapped they would be charged to
    ``phy`` and ``core``.
    """
    from repro.core.events import EventQueue, TimerWheel
    from repro.core.simulator import Simulator
    from repro.mac.arena import ContentionArena
    from repro.mac.base import MacLayer
    from repro.mac.dcf import DcfMac
    from repro.mobility.manager import MobilityManager
    from repro.net.node import Node
    from repro.phy.channel import Channel
    from repro.phy.radio import Radio
    from repro.routing.base import RoutingProtocol
    from repro.stats.metrics import MetricsCollector

    mac_names = (
        "send", "on_frame_received", "on_transmit_done", "medium_changed",
        "medium_edge", "purge_next_hop", "overhear_nav",
        "_ensure_nav_wake", "_begin_contention", "_resume_contention",
        "_nav_wake_fired",
    )
    routing_names = ("originate", "deliver", "link_failed", "start")

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    entry_points = [
        (Simulator, "core", ("run",)),
        (MobilityManager, "mobility",
         ("positions", "position", "distance", "distances_from")),
        (Channel, "phy", ("transmit", "flush_phy_stats")),
        (Radio, "phy", ("transmit", "begin_arrival", "end_arrival")),
        (MacLayer, "mac", mac_names),
        (DcfMac, "mac", mac_names),
        (ContentionArena, "mac", ("busy_edges", "prepare_end_edges")),
        (RoutingProtocol, "routing", routing_names),
        *((cls, "routing", routing_names) for cls in subclasses(RoutingProtocol)),
        (Node, "net", ("send", "deliver_local")),
        (MetricsCollector, "stats", ("on_send", "on_receive", "finish")),
    ]
    schedulers = [
        (EventQueue, "push"),
        (EventQueue, "push_at_seq"),
        (TimerWheel, "schedule"),
    ]
    return entry_points, schedulers
