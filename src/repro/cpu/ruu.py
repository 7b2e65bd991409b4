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
structure — it was issued (so it sits in neither the ready heap nor the
waiting list) and resolved (so ``dependents`` is ``None`` and it is not
a pending load).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from operator import attrgetter

from ..isa.opcodes import OpClass

_STORE = int(OpClass.STORE)


_entry_seq = attrgetter("seq")


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
        self.dependents = None
        self.issued = False
        self.issued_at = -1
        self.result_time = None
        self.handle = None

    def __repr__(self) -> str:
        return (f"<RUUEntry #{self.seq} {OpClass(self.op_class).name} "
                f"issued={self.issued} result={self.result_time}>")


class RUU:
    """The instruction window with dependence tracking.

    Dispatch links each entry to the in-flight producers its record
    names; an entry becomes ready once every producer's result time is
    known, at which point it enters the ready heap keyed by
    ``(operand_time, seq)`` — oldest-first among equally-ready entries.
    An issue pass takes the due entries off the heap; those it cannot
    issue wait, oldest first, for the next pass.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        #: In-flight entries, oldest first.
        self.window = deque()
        size = 1 << (capacity - 1).bit_length()
        #: Entries by ``seq & mask`` (see module docstring).
        self.ring = [None] * size
        self.mask = size - 1
        self._ready_heap = []
        #: Ready entries the last issue pass could not issue, oldest
        #: first (see :meth:`candidates`).
        self._waiting = []

    def __len__(self) -> int:
        return len(self.window)

    def is_full(self) -> bool:
        return len(self.window) >= self.capacity

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

    def unissued_store_before(self, seq: int) -> bool:
        """True when an in-flight store older than ``seq`` has not issued
        (the conservative-disambiguation stall condition)."""
        ring, mask = self.ring, self.mask
        older = (ring[s & mask] for s in range(self.window[0].seq, seq))
        return any(entry.op_class == _STORE and not entry.issued
                   for entry in older)

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

    def candidates(self, now: int):
        """Take every entry that may issue at ``now``, in issue order.

        Entries whose operands became ready before ``now`` come first,
        by (ready time, age); then the waiting list and the entries
        ready exactly at ``now``, merged by age.  The waiting list is
        emptied: the issue pass rebuilds it from the entries it cannot
        issue.  Returns ``(batch, aged)``; ``aged`` is True when the
        whole batch is in age order.
        """
        batch = self._waiting
        self._waiting = []
        heap = self._ready_heap
        if not heap or heap[0][0] > now:
            return batch, True
        early = []
        retried = len(batch)
        while heap and heap[0][0] <= now:
            ready, _, entry = heappop(heap)
            (early if ready < now else batch).append(entry)
        if retried and len(batch) > retried:
            batch.sort(key=_entry_seq)
        if early:
            return early + batch, False
        return batch, True

    def wait(self, entries: list, aged: bool) -> None:
        """Make ``entries`` the waiting list: those an issue pass over a
        :meth:`candidates` batch could not issue, in batch order, with
        that batch's ``aged`` flag."""
        if not aged:
            entries.sort(key=_entry_seq)
        self._waiting = entries
