"""Where a run's wall time goes, measured from outside the engine.

A :class:`Profiler` replaces the :func:`entry_points` methods, at class
level, with wrappers timing each call as a span of the
``repro.<package>`` the method lives in (``repro.mac.dcf`` -> ``mac``).
The wrapped schedulers store each callback behind a span of its owner's
package, so DCF timers count as ``mac``, not as the event loop's; they
leave ``(time, seq)`` alone, so firing order cannot change. Re-entering
the layer on top opens no span. Spans aggregate by layer path
(``core/phy/mac``) into calls, wall time and *self* time (wall minus
child spans). No engine module refers to this one.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from time import perf_counter
from typing import Dict, Optional

from ..core.errors import ConfigurationError

__all__ = ["Profiler", "entry_points", "profile_layer_seconds"]

#: DCF's public methods plus the four private ones other layers reach
#: directly: the channel's resolve loop calls ``_ensure_nav_wake`` /
#: ``_begin_contention`` / ``_resume_contention`` inline, and the arena
#: pushes ``_nav_wake_fired`` onto the event queue itself.
_MAC_NAMES = (
    "send", "on_frame_received", "on_transmit_done", "medium_changed",
    "medium_edge", "purge_next_hop", "overhear_nav",
    "_ensure_nav_wake", "_begin_contention", "_resume_contention",
    "_nav_wake_fired",
)


def entry_points():
    """``([(class, method names)], [(class, scheduler name)])``; a name
    is wrapped on each subclass too, where that class defines it."""
    from ..core.events import EventQueue
    from ..core.simulator import Simulator
    from ..mac.arena import ContentionArena
    from ..mac.base import MacLayer
    from ..mobility.manager import MobilityManager
    from ..net.node import Node
    from ..phy.channel import Channel
    from ..phy.radio import Radio
    from ..routing.base import RoutingProtocol
    from ..stats.metrics import MetricsCollector

    table = [
        (Simulator, ("run",)),
        (MobilityManager, ("positions", "position", "distance", "distances_from")),
        (Channel, ("transmit", "flush_phy_stats")),
        (Radio, ("transmit",)),
        (MacLayer, _MAC_NAMES),
        (ContentionArena, ("busy_edges",)),
        (RoutingProtocol, ("originate", "deliver", "link_failed", "start")),
        (Node, ("send", "deliver_local")),
        (MetricsCollector, ("on_send", "on_receive", "finish")),
    ]
    schedulers = [(EventQueue, "push")]
    return table, schedulers


@lru_cache(maxsize=256)
def _layer_of(fn) -> str:
    """Package of ``repro`` defining *fn*; ``core`` for anything else."""
    parts = (getattr(fn, "__module__", None) or "").split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "core"


def _with_subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _with_subclasses(sub)


class _Span:
    """One node of the layer-path tree: the aggregate for its path."""

    __slots__ = ("layer", "calls", "wall", "child_wall", "children")

    def __init__(self, layer: Optional[str]) -> None:
        self.layer = layer
        self.calls = 0
        self.wall = 0.0
        self.child_wall = 0.0
        self.children: Dict[str, "_Span"] = {}


class Profiler:
    """Outside-in span profiler over the :func:`entry_points` table."""

    #: Wrappers are process-wide: two installed would unwind out of order.
    _installed: Optional["Profiler"] = None

    def __init__(self) -> None:
        #: Open spans, innermost last; the root never closes.
        self._stack = [_Span(None)]
        self._patched: list = []

    def _span(self, layer: str, fn, args, kwargs={}):
        """``fn(*args, **kwargs)`` inside a span of *layer*."""
        stack = self._stack
        top = stack[-1]
        if top.layer == layer:
            return fn(*args, **kwargs)
        node = top.children.get(layer)
        if node is None:
            node = top.children[layer] = _Span(layer)
        stack.append(node)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            node.calls += 1
            node.wall += dt
            top.child_wall += dt

    def _wrap(self, fn):
        span, layer = self._span, _layer_of(fn)

        # wraps() keeps fn's __module__: a wrapped method handed to a
        # scheduler as a callback is still owned by its own layer.
        @wraps(fn)
        def spanned(*args, **kwargs):
            return span(layer, fn, args, kwargs)

        return spanned

    def _wrap_scheduler(self, fn):
        span = self._span

        @wraps(fn)
        def scheduling(self_, when, callback, args=(), *rest):
            layer = _layer_of(getattr(callback, "__func__", callback))
            return fn(self_, when, span, (layer, callback, args), *rest)

        return scheduling

    def install(self) -> None:
        """Wrap every entry point and scheduler until :meth:`remove`."""
        if Profiler._installed is not None:
            raise ConfigurationError("a profiled scenario is already built "
                                     "and has not run; run it first")
        Profiler._installed = self
        table, schedulers = entry_points()
        rows = [(cls, name, self._wrap) for base, names in table
                for cls in _with_subclasses(base) for name in names
                if name in cls.__dict__]
        rows += [(cls, name, self._wrap_scheduler) for cls, name in schedulers]
        for cls, name, wrap in rows:
            original = cls.__dict__[name]
            self._patched.append((cls, name, original))
            setattr(cls, name, wrap(original))

    def remove(self) -> None:
        """Restore every patched class attribute (reverse order)."""
        while self._patched:
            cls, name, original = self._patched.pop()
            setattr(cls, name, original)
        if Profiler._installed is self:
            Profiler._installed = None

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """``{path: {calls, wall_s, self_s}}``, hottest self time first."""
        rows, todo = {}, [("", self._stack[0])]
        while todo:
            prefix, node = todo.pop()
            for layer, child in node.children.items():
                rows[prefix + layer] = {
                    "calls": child.calls, "wall_s": child.wall,
                    "self_s": child.wall - child.child_wall,
                }
                todo.append((prefix + layer + "/", child))
        return dict(sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]))


def profile_layer_seconds(profile: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Fold a profile into per-layer *self* seconds: each span's self
    time goes to its innermost layer (``core/phy/mac`` -> ``mac``).
    Used for the sweep CSV's ``profile_<layer>_s`` columns."""
    out: Dict[str, float] = {}
    for path, stat in profile.items():
        layer = path.rsplit("/", 1)[-1]
        out[layer] = out.get(layer, 0.0) + float(stat.get("self_s", 0.0))
    return out
