"""The contract between the out-of-order core and a memory system.

The pipeline is generic: the DataScalar node, the traditional baseline,
and the perfect-cache baseline all plug in behind :class:`MemoryInterface`.
A load may complete at a cycle the memory system cannot yet know (a
DataScalar node waiting on another node's broadcast), so loads return a
:class:`LoadHandle` whose ``ready`` field is filled in when known.
"""

from __future__ import annotations


class LoadHandle:
    """Tracks one in-flight load.

    ``ready`` is the cycle the value is available to dependents, or
    ``None`` while unknown.  ``issue_hit`` records the issue-time cache
    outcome (``None`` when no cache probe was involved) for the
    correspondence protocol's commit-time reconciliation.
    """

    __slots__ = ("addr", "size", "issued_at", "ready", "issue_hit",
                 "found_in_bshr", "forwarded", "dcub_line")

    def __init__(self, addr: int, size: int, issued_at: int):
        self.addr = addr
        self.size = size
        self.issued_at = issued_at
        self.ready = None
        self.issue_hit = None
        self.found_in_bshr = False
        self.forwarded = False
        self.dcub_line = None

    def complete(self, cycle: int) -> None:
        """Resolve the load at ``cycle`` (idempotence is an error)."""
        assert self.ready is None, "load completed twice"
        self.ready = cycle

    def __repr__(self) -> str:
        state = "?" if self.ready is None else str(self.ready)
        return f"<LoadHandle {self.addr:#x} issued@{self.issued_at} ready={state}>"


class MemoryInterface:
    """Abstract memory system seen by one core.

    Implementations provide issue-time load timing, commit-time canonical
    cache updates (the correspondence discipline of paper Section 4.1),
    and instruction-fetch timing.  Every load the pipeline does not
    forward from an earlier store reaches :meth:`load_issue`, and every
    load and store reaches :meth:`commit_mem`, in program order.
    """

    def load_issue(self, now: int, addr: int, size: int) -> LoadHandle:
        """Begin a data load at cycle ``now``; returns its handle."""
        raise NotImplementedError

    def commit_mem(self, now: int, addr: int, size: int, is_store: bool,
                   handle) -> None:
        """Apply the canonical, in-order cache access for a committing
        memory instruction.  ``handle`` is the load's issue-time handle
        (``None`` for stores and forwarded loads carry
        ``issue_hit is None``); the correspondence protocol reconciles
        its issue-time outcome against the canonical one."""
        raise NotImplementedError

    def ifetch_line(self, now: int, line_addr: int) -> int:
        """Fetch an instruction cache line; returns the ready cycle."""
        raise NotImplementedError

    def drain(self, now: int) -> bool:
        """Called each cycle after the trace is exhausted; returns True
        when the memory system has no outstanding work."""
        return True
