"""Shared dynamic-trace fan-out for SPSD simulation.

Every DataScalar node executes the *identical* dynamic instruction
stream (the paper's serial-program, single-dataset model), so running
one functional interpreter per node interprets the same program N times.
:class:`TraceFanout` runs the interpreter **once** and tees its
:class:`~repro.isa.trace.DynInstr` records to N consumer views, cutting
interpretation cost from O(N·I) to O(I).

The views are plain iterators, so they drop into ``Pipeline`` unchanged.
Records are shared by reference and never looked into here: the source,
:func:`repro.isa.codegen.make_trace_source`, is annotated once before
the tee, and the timing models treat the records as immutable.

Each view owns a private pending queue (the ``itertools.tee`` shape):
the view that runs ahead pulls a record from the source and appends it
to every *other* view's queue, so both the buffered-read path and the
produce path are O(1) — no shared ring indexing, no trim scans.
Consumers advance at different paces, but never further apart than one
instruction window: a pipeline pulls a record only when it has RUU space
to dispatch it, so a queue's natural high-water mark is about
``ruu_entries + fetch_width``.  The capacity bound exists to turn a
protocol bug (one node wedged while others stream ahead) into a loud
error instead of unbounded memory growth.
"""

from __future__ import annotations

from collections import deque

from ..errors import SimulationError

#: Default per-view queue capacity — far above any legal window-bounded
#: lag.
DEFAULT_CAPACITY = 65_536


class TraceFanout:
    """Tee one dynamic-instruction stream to ``num_views`` consumers."""

    def __init__(self, source, num_views: int,
                 capacity: int = DEFAULT_CAPACITY):
        if num_views < 1:
            raise SimulationError("TraceFanout needs at least one view")
        if capacity < 1:
            raise SimulationError("TraceFanout capacity must be >= 1")
        self._source = iter(source)
        self._queues = [deque() for _ in range(num_views)]
        #: Per view, the queues of every *other* view (the append
        #: targets when this view produces) — precomputed so the
        #: per-record produce loop carries no index comparisons.
        self._others = [
            [q for j, q in enumerate(self._queues) if j != i]
            for i in range(num_views)
        ]
        self._produced = 0  # records pulled from the source so far
        self._exhausted = False
        self.capacity = capacity
        self.high_water = 0

    # ------------------------------------------------------------------
    # Consumer protocol (a view whose queue ran dry calls this).
    # ------------------------------------------------------------------
    def _produce_for(self, view_id: int):
        """Pull one source record for ``view_id`` (whose queue is empty)
        and buffer it for every other view."""
        if self._exhausted:
            raise StopIteration
        try:
            record = next(self._source)
        except StopIteration:
            self._exhausted = True
            raise
        self._produced += 1
        depth = 0
        for queue in self._others[view_id]:
            queue.append(record)
            if len(queue) > depth:
                depth = len(queue)
        if depth > self.high_water:
            self.high_water = depth
            if depth > self.capacity:
                raise SimulationError(
                    f"TraceFanout queue exceeded {self.capacity} records "
                    f"— one consumer is wedged (lags={self.lags()})"
                )
        return record

    def lags(self) -> "list[int]":
        """Records each view still has buffered (0 = fully caught up)."""
        return [len(queue) for queue in self._queues]

    def views(self) -> "list":
        """One iterator per consumer, in view-id order."""
        return [_TraceView(self, i) for i in range(len(self._queues))]


class _TraceView:
    """One consumer's iterator over the shared stream."""

    __slots__ = ("_fanout", "_view_id", "_queue")

    def __init__(self, fanout: TraceFanout, view_id: int):
        self._fanout = fanout
        self._view_id = view_id
        self._queue = fanout._queues[view_id]

    def __iter__(self):
        return self

    def __next__(self):
        queue = self._queue
        if queue:
            return queue.popleft()
        return self._fanout._produce_for(self._view_id)


def fan_out(source, num_views: int, capacity: int = DEFAULT_CAPACITY):
    """Convenience: return ``num_views`` iterators over ``source``.

    A single view bypasses the tee entirely — the source iterator is
    returned as-is.
    """
    if num_views == 1:
        return [iter(source)]
    return TraceFanout(source, num_views, capacity=capacity).views()
