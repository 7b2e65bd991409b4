"""The Register Update Unit: window entries and dependence wake-up.

The paper's processor "used a Register Update Unit (RUU) to keep track of
instruction dependencies" — a combined reorder buffer and issue window.
Entries wake dependents when their result-ready cycle becomes known
(at issue for fixed-latency operations; when the memory system resolves
the handle for loads).

Entry objects are recycled through a free list.  The commit stage of
:meth:`repro.cpu.pipeline.Pipeline.tick` pops the head off ``window``,
drops the ``_last_writer`` slot that still names it and, while
``_free`` holds fewer than ``capacity`` entries, appends it there;
:meth:`RUU.dispatch` reuses it for the next instruction.  This is safe
because a committed entry can appear in no other structure — it was
issued (so it sits in neither the ready heap nor the waiting list) and
resolved (so ``dependents`` is ``None`` and it is not a pending load).
Dropping its ``_last_writer`` slot changes nothing: a committed
producer's result time is in the past, so it could never again raise a
later consumer's operand time.  A load's cached ``blocker`` may still
name a recycled store; the issue stage treats a blocker younger than
the load as gone.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from operator import attrgetter

from ..isa.opcodes import OpClass

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)


_entry_seq = attrgetter("seq")


class RUUEntry:
    """One in-flight instruction."""

    __slots__ = (
        "seq", "op_class", "dest", "addr", "size", "dispatched_at",
        "operand_time", "unresolved", "dependents", "issued", "issued_at",
        "result_time", "handle", "is_load", "is_store", "private",
        "blocker",
    )

    def __init__(self, dyn, now: int):
        self._reset(dyn, now)

    def _reset(self, dyn, now: int) -> None:
        """(Re)initialize for ``dyn`` — shared by construction and
        free-list reuse, so a recycled entry is indistinguishable from a
        fresh one."""
        op_class = dyn.op_class
        self.seq = dyn.seq
        self.op_class = op_class
        self.dest = dyn.dest
        self.addr = dyn.addr
        self.size = dyn.size
        self.dispatched_at = now
        self.operand_time = now
        self.unresolved = 0
        self.dependents = None
        self.issued = False
        self.issued_at = -1
        self.result_time = None
        self.handle = None
        self.is_load = op_class == _LOAD
        self.is_store = op_class == _STORE
        self.private = dyn.private
        #: The unissued store this load last found it may not bypass.
        self.blocker = None

    def __repr__(self) -> str:
        return (f"<RUUEntry #{self.seq} {OpClass(self.op_class).name} "
                f"issued={self.issued} result={self.result_time}>")


class RUU:
    """The instruction window with dependence tracking.

    Dispatch links each entry to the last writer of each source register;
    an entry becomes ready once every producer's result time is known,
    at which point it enters the ready heap keyed by
    ``(operand_time, seq)`` — oldest-first among equally-ready entries.
    An issue pass takes the due entries off the heap; those it cannot
    issue wait, oldest first, for the next pass.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.window = deque()
        self._last_writer = {}
        self._ready_heap = []
        #: Ready entries the last issue pass could not issue, oldest
        #: first (see :meth:`candidates`).
        self._waiting = []
        #: Committed entries awaiting reuse (see module docstring).
        self._free = []

    def __len__(self) -> int:
        return len(self.window)

    def is_full(self) -> bool:
        return len(self.window) >= self.capacity

    def head(self):
        return self.window[0] if self.window else None

    def dispatch(self, dyn, now: int) -> RUUEntry:
        """Insert a traced instruction, wiring register dependencies."""
        free = self._free
        if free:
            # Inlined ``RUUEntry._reset`` (the steady-state path runs
            # once per instruction): ``operand_time``/``unresolved`` are
            # assigned below from the dependence scan, and ``blocker``
            # is already ``None`` (a load clears it when it issues).
            entry = free.pop()
            op_class = dyn.op_class
            seq = dyn.seq
            entry.seq = seq
            entry.op_class = op_class
            dest = entry.dest = dyn.dest
            entry.addr = dyn.addr
            entry.size = dyn.size
            entry.dispatched_at = now
            entry.dependents = None
            entry.issued = False
            entry.issued_at = -1
            entry.result_time = None
            entry.handle = None
            entry.is_load = op_class == _LOAD
            entry.is_store = op_class == _STORE
            entry.private = dyn.private
        else:
            entry = RUUEntry(dyn, now)
            seq = entry.seq
            dest = entry.dest
        last_writer = self._last_writer
        unresolved = 0
        operand_time = now
        for src in dyn.srcs:
            producer = last_writer.get(src)
            if producer is None:
                continue
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
        if dest is not None:
            last_writer[dest] = entry
        self.window.append(entry)
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
