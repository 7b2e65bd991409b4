"""Page-level access profiling.

The paper selects pages to replicate statically "by running the benchmark,
saving the number of accesses to each page, sorting the pages by number of
accesses, and choosing the most heavily accessed" (Section 3.2).  This
module implements that profiling pass over the functional interpreter's
memory-reference stream.
"""

from __future__ import annotations

from ..isa.interpreter import Interpreter
from ..isa.trace import IFETCH
from .address import Segment, segment_of


class PageProfile:
    """Access counts per page, with segment attribution."""

    def __init__(self, page_size: int):
        self.page_size = page_size
        self.counts: "dict[int, int]" = {}
        self.instruction_refs = 0
        self.data_refs = 0

    def record(self, addr: int, is_ifetch: bool = False) -> None:
        page = addr // self.page_size
        self.counts[page] = self.counts.get(page, 0) + 1
        if is_ifetch:
            self.instruction_refs += 1
        else:
            self.data_refs += 1

    def pages_by_count(self) -> "list[tuple[int, int]]":
        """Pages sorted hottest first: ``[(page, count), ...]``."""
        return sorted(self.counts.items(), key=lambda item: (-item[1], item[0]))

    def hottest(self, limit: int) -> "list[int]":
        """The ``limit`` most-accessed page numbers."""
        return [page for page, _ in self.pages_by_count()[:limit]]

    def segment_of_page(self, page: int) -> Segment:
        return segment_of(page * self.page_size)

    def pages_in_segment(self, segment: Segment) -> "list[int]":
        return [p for p in self.counts if self.segment_of_page(p) is segment]


def profile_program(program, page_size: int, limit=None,
                    include_ifetch: bool = True) -> PageProfile:
    """Run ``program`` functionally and collect a page-access profile."""
    profile = PageProfile(page_size)
    # Interpreted, like every trace-level study: generated code has
    # only the timing runs' record stream (docs/simulator.md).
    interp = Interpreter(program)
    for ref in interp.mem_refs(limit=limit, include_ifetch=include_ifetch):
        profile.record(ref.addr, ref.kind == IFETCH)
    return profile
