"""The tracer protocol and its in-memory implementation.

The simulator's instrumentation sites hold a tracer reference that is
``None`` by default; every emission is guarded by ``if tracer is not
None`` so a run without tracing executes exactly the code it executed
before the instrumentation layer existed (zero overhead when disabled).

A tracer is *passive* — :meth:`Tracer.emit` must not mutate simulator
state — but it may be *scheduled*: :meth:`Tracer.next_event` is folded
into the cycle driver's external bound exactly like the fault layer's
recovery timers (see :func:`repro.core.system.drive`), so a tracer that
wants to be woken at specific cycles (e.g. a periodic sampler) can
request them without forcing dense per-cycle ticking and without
changing a single reported number.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from .events import EventKind, TraceEvent


@runtime_checkable
class Tracer(Protocol):
    """What the simulator needs from a tracer: nothing else is called."""

    def emit(self, kind: EventKind, cycle: int, node: int, **args: object) -> None:
        """Record one event.  Must not mutate simulator state."""

    def next_event(self, now: int) -> "int | None":
        """Earliest future cycle this tracer wants simulated densely, or
        ``None``.  Folded into fast-forward's event accounting."""


class NullTracer:
    """A tracer that discards everything (useful as an explicit no-op)."""

    def emit(self, kind: EventKind, cycle: int, node: int, **args: object) -> None:
        pass

    def next_event(self, now: int) -> "int | None":
        return None


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

    def next_event(self, now: int) -> "int | None":
        return None

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: EventKind) -> "list[TraceEvent]":
        """The recorded events of one kind, in emission order."""
        return [event for event in self.events if event.kind is kind]


class SamplingTracer(EventTracer):
    """An :class:`EventTracer` that additionally schedules periodic
    wake-ups every ``sample_every`` cycles through the fast-forward
    event accounting — the pattern a registry-backed sampler uses to
    observe a run without disabling idle-cycle skipping.
    """

    def __init__(self, sample_every: int, kinds: "set[EventKind] | None" = None):
        super().__init__(kinds=kinds)
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every

    def next_event(self, now: int) -> "int | None":
        return now - (now % self.sample_every) + self.sample_every
