"""The Data Commit Update Buffer.

Paper Section 4.1: "When a cache miss returns, rather than loading the
data into the cache, the line is placed into an entry of the DCUB ...
Memory operations to the same line are serviced by the data in the DCUB
... When a memory operation is committed, the cache tags are updated,
and, if necessary, the line is loaded from the DCUB into the cache.  A
DCUB entry is deallocated when the last entry in the load/store queue
that uses that line is committed."

The DCUB is what makes commit-time-only cache updates workable: issue-time
misses land here, later issue-time accesses to the same in-flight line
merge here (so one line-episode generates exactly one fetch), and commits
drain lines from here into the cache.
"""

from __future__ import annotations

from ..errors import ProtocolError
from ..obs.events import EventKind


class DCUBEntry:
    """One in-flight line."""

    __slots__ = ("line", "ready", "refs", "merged_handles")

    def __init__(self, line: int):
        self.line = line
        self.ready: int | None = None
        self.refs = 0
        #: (handle, merge cycle) of each access waiting on the line.
        self.merged_handles: list[tuple] = []

    def resolve(self, cycle: int) -> None:
        """The line's data became available at ``cycle``; wake merged
        accesses."""
        self.ready = cycle
        for handle, merge_cycle in self.merged_handles:
            handle.complete(max(cycle, merge_cycle + 1))
        self.merged_handles = []


class DCUB:
    """Per-node commit update buffer, indexed by line address."""

    def __init__(self, name: str = "dcub"):
        self.name = name
        self._entries: "dict[int, DCUBEntry]" = {}
        self.merges = 0
        self._tracer = None  # observability hook (None = untraced)
        self._trace_node = 0

    def attach_tracer(self, tracer, node_id: int) -> None:
        """Emit this DCUB's events to ``tracer`` as node ``node_id``."""
        self._tracer = tracer
        self._trace_node = node_id

    def lookup(self, line: int):
        return self._entries.get(line)

    def allocate(self, line: int, now: int) -> DCUBEntry:
        """Track a new in-flight line (issue-time miss)."""
        if line in self._entries:
            raise ProtocolError(f"{self.name}: line {line:#x} already in DCUB")
        entry = DCUBEntry(line)
        entry.refs = 1
        self._entries[line] = entry
        if self._tracer is not None:
            self._tracer.emit(EventKind.DCUB_STAGE, now, self._trace_node,
                              line=line)
        return entry

    def merge(self, entry: DCUBEntry, now: int, handle) -> None:
        """A later access to an in-flight line is serviced by the DCUB."""
        entry.refs += 1
        self.merges += 1
        if entry.ready is not None:
            handle.complete(max(entry.ready, now + 1))
        else:
            entry.merged_handles.append((handle, now))

    def release(self, line: int) -> bool:
        """One referencing memory operation committed; returns True when
        the entry was deallocated (last reference gone)."""
        entry = self._entries.get(line)
        if entry is None:
            raise ProtocolError(f"{self.name}: release of unknown {line:#x}")
        entry.refs -= 1
        if entry.refs <= 0:
            if entry.merged_handles:
                raise ProtocolError(
                    f"{self.name}: deallocating line {line:#x} with "
                    f"unresolved merged accesses"
                )
            del self._entries[line]
            return True
        return False

    def occupancy(self) -> int:
        return len(self._entries)

    def assert_drained(self) -> None:
        if self._entries:
            raise ProtocolError(
                f"{self.name}: DCUB not empty at end of run: "
                f"{[hex(line) for line in self._entries]}"
            )
