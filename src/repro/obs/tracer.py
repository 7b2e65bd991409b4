"""The tracer protocol and its in-memory implementation.

The simulator's instrumentation sites hold a tracer reference that is
``None`` by default; every emission is guarded by ``if tracer is not
None`` so a run without tracing executes exactly the code it executed
before the instrumentation layer existed (zero overhead when disabled).

A tracer is *passive*: :meth:`Tracer.emit` is the only call the
simulator makes on it, and it must not mutate simulator state.  A
traced run therefore ticks and skips exactly the cycles of the same run
untraced.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from .events import EventKind, TraceEvent


@runtime_checkable
class Tracer(Protocol):
    """What the simulator needs from a tracer: nothing else is called."""

    def emit(self, kind: EventKind, cycle: int, node: int, **args: object) -> None:
        """Record one event.  Must not mutate simulator state."""


class EventTracer:
    """Records every emitted event in order, with per-kind counts.

    ``kinds`` restricts recording to a subset of :class:`EventKind`
    (counts still cover everything), which keeps long traced runs from
    holding e.g. every per-instruction commit event in memory.
    """

    def __init__(self, kinds: "set[EventKind] | None" = None):
        self.events: "list[TraceEvent]" = []
        self.counts: "dict[EventKind, int]" = {}
        self._kinds = kinds

    def emit(self, kind: EventKind, cycle: int, node: int, **args: object) -> None:
        counts = self.counts
        counts[kind] = counts.get(kind, 0) + 1
        if self._kinds is not None and kind not in self._kinds:
            return
        self.events.append(TraceEvent(kind, cycle, node, args))
