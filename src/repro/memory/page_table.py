"""The shared page table: replicated/communicated state and ownership.

The paper keeps one bit per page-table entry for replicated-vs-communicated
and one ownership bit set at exactly one processor (Section 4.2).  We model
the global view: each mapped page is either replicated everywhere or
communicated with a single integer owner.
"""

from __future__ import annotations

from ..errors import MemoryError_


class PTE:
    """One page-table entry."""

    __slots__ = ("page", "replicated", "owner")

    def __init__(self, page: int, replicated: bool, owner):
        if replicated and owner is not None:
            raise MemoryError_("replicated pages have no owner")
        if not replicated and owner is None:
            raise MemoryError_("communicated pages need an owner")
        self.page = page
        self.replicated = replicated
        self.owner = owner

    def __repr__(self) -> str:
        kind = "repl" if self.replicated else f"node{self.owner}"
        return f"<PTE page={self.page} {kind}>"


class PageTable:
    """Maps page numbers to replication state and ownership.

    ``num_owners`` is the number of processors pages may be owned by.
    Accesses to unmapped pages (e.g. deep stack growth past the layout's
    estimate) fall back to a deterministic round-robin owner and are
    counted in :attr:`unmapped_accesses` so experiments can verify the
    layout covered the working set.
    """

    def __init__(self, page_size: int, num_owners: int):
        if page_size <= 0 or page_size & (page_size - 1):
            raise MemoryError_("page_size must be a positive power of two")
        if num_owners < 1:
            raise MemoryError_("num_owners must be >= 1")
        self.page_size = page_size
        self.num_owners = num_owners
        self._entries: "dict[int, PTE]" = {}
        self.unmapped_accesses = 0

    def page_of(self, addr: int) -> int:
        return addr // self.page_size

    def map_page(self, page: int, replicated: bool, owner=None) -> None:
        """Install an entry; remapping an existing page is an error."""
        if page in self._entries:
            raise MemoryError_(f"page {page} already mapped")
        if owner is not None and not 0 <= owner < self.num_owners:
            raise MemoryError_(f"owner {owner} out of range")
        self._entries[page] = PTE(page, replicated, owner)

    def entry_for(self, addr: int) -> PTE:
        """Entry covering ``addr``, synthesizing a fallback if unmapped."""
        page = self.page_of(addr)
        entry = self._entries.get(page)
        if entry is None:
            self.unmapped_accesses += 1
            entry = PTE(page, False, page % self.num_owners)
            self._entries[page] = entry
        return entry

    def is_replicated(self, addr: int) -> bool:
        """True when the page holding ``addr`` is replicated at every node."""
        return self.entry_for(addr).replicated

    def owner_of(self, addr: int):
        """Owning node of a communicated address (``None`` if replicated)."""
        return self.entry_for(addr).owner

    def is_local(self, addr: int, node: int) -> bool:
        """True when ``node`` can satisfy an access to ``addr`` locally."""
        entry = self.entry_for(addr)
        return entry.replicated or entry.owner == node

    def counts(self) -> "dict":
        """Summary: replicated pages, plus communicated pages per owner."""
        replicated = sum(1 for e in self._entries.values() if e.replicated)
        per_owner = [0] * self.num_owners
        for entry in self._entries.values():
            if not entry.replicated:
                per_owner[entry.owner] += 1
        return {"replicated": replicated, "per_owner": per_owner}

    def __len__(self) -> int:
        return len(self._entries)
