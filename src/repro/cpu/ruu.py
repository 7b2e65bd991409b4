"""The Register Update Unit: window entries and dependence wake-up.

The paper's processor "used a Register Update Unit (RUU) to keep track of
instruction dependencies" — a combined reorder buffer and issue window.
Entries wake dependents when their result-ready cycle becomes known
(at issue for fixed-latency operations; when the memory system resolves
the handle for loads).

Entries live in a ring of ``2**k >= capacity`` slots indexed by
``seq & mask``.  Records arrive annotated (:func:`repro.isa.annotate`)
with the seqs of their producers and, for a load, of its forwarding
store, and a stream's seqs run 0, 1, 2, ...; so a named instruction is
in flight exactly when its seq is at least the window head's, and then
it is the entry in its slot.  One older than the head has committed,
and its result time is past.  :meth:`RUU.dispatch` reuses the committed
entry in the new seq's slot: a committed entry is in no other
structure — it was issued (so it sits neither in the ready heap nor on
a waiting list) and resolved (so ``dependents`` is ``None`` and it is
not a pending load).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any

from ..isa.opcodes import OpClass


class RUUEntry:
    """One in-flight instruction."""

    __slots__ = (
        "seq", "op_class", "dyn", "operand_time", "unresolved",
        "dependents", "issued", "issued_at", "result_time", "handle",
    )

    def __init__(self, dyn, now: int):
        self.seq = dyn.seq
        self.op_class = dyn.op_class
        #: The record: its address, size, forwarding store (``fwd``) and
        #: canonical outcomes are read from it, never copied.
        self.dyn = dyn
        self.operand_time = now
        self.unresolved = 0
        self.dependents: list[RUUEntry] | None = None
        self.issued = False
        self.issued_at = -1
        self.result_time: int | None = None
        #: A load's handle: the memory system's, or a forwarded one.
        self.handle: Any = None

    def __repr__(self) -> str:
        return (f"<RUUEntry #{self.seq} {OpClass(self.op_class).name} "
                f"issued={self.issued} result={self.result_time}>")


class RUU:
    """The instruction window with dependence tracking.

    Dispatch links each entry to the in-flight producers its record
    names; an entry becomes ready once every producer's result time is
    known, at which point it enters the ready heap keyed by
    ``(operand_time, seq)`` — oldest-first among equally-ready entries.

    The issue pass (:meth:`repro.cpu.pipeline.Pipeline.tick`) takes the
    due entries off the heap and merges them by age with the entries the
    pass before could not issue, which wait in two age-ordered lists:
    the loads, and the rest.  It takes only as many of the oldest
    waiting loads as there are LOAD slots, and carries the rest of the
    load list over as one slice.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        #: In-flight entries, oldest first.
        self.window: deque[RUUEntry] = deque()
        size = 1 << (capacity - 1).bit_length()
        #: Entries by ``seq & mask`` (see module docstring).  A slot is
        #: ``None`` until its first use, but an in-flight seq always
        #: finds its entry, so readers do not check.
        self.ring: list[Any] = [None] * size
        self.mask = size - 1
        self._ready_heap: list[tuple[int, int, RUUEntry]] = []
        #: Ready loads the last issue pass could not issue, oldest first.
        self._waiting_loads: list[RUUEntry] = []
        #: Ready non-loads the last issue pass could not issue.
        self._waiting_others: list[RUUEntry] = []

    def __len__(self) -> int:
        return len(self.window)

    def head(self):
        return self.window[0] if self.window else None

    def dispatch(self, dyn, now: int) -> RUUEntry:
        """Insert an annotated record, wiring its register dependences."""
        seq = dyn.seq
        ring = self.ring
        slot = seq & self.mask
        entry = ring[slot]
        if entry is None:
            entry = ring[slot] = RUUEntry(dyn, now)
        else:
            # Reset as ``RUUEntry.__init__`` would: ``operand_time`` and
            # ``unresolved`` are assigned below, and ``dependents`` is
            # already ``None`` (see module docstring).
            entry.seq = seq
            entry.op_class = dyn.op_class
            entry.dyn = dyn
            entry.issued = False
            entry.issued_at = -1
            entry.result_time = None
            entry.handle = None
        window = self.window
        head = window[0].seq if window else seq
        mask = self.mask
        unresolved = 0
        operand_time = now
        for producer_seq in dyn.deps:
            if producer_seq < head:
                continue  # committed
            producer = ring[producer_seq & mask]
            result_time = producer.result_time
            if result_time is not None:
                if result_time > operand_time:
                    operand_time = result_time
            else:
                unresolved += 1
                if producer.dependents is None:
                    producer.dependents = [entry]
                else:
                    producer.dependents.append(entry)
        entry.operand_time = operand_time
        entry.unresolved = unresolved
        window.append(entry)
        if unresolved == 0:
            heappush(self._ready_heap, (operand_time, seq, entry))
        return entry

    def resolve(self, entry: RUUEntry, result_time: int) -> None:
        """Set ``entry``'s result time and wake its dependents."""
        entry.result_time = result_time
        dependents = entry.dependents
        if not dependents:
            return
        heap = self._ready_heap
        for dep in dependents:
            if result_time > dep.operand_time:
                dep.operand_time = result_time
            dep.unresolved -= 1
            if dep.unresolved == 0 and not dep.issued:
                heappush(heap, (dep.operand_time, dep.seq, dep))
        entry.dependents = None
