"""Page-level access profiling.

The paper selects pages to replicate statically "by running the benchmark,
saving the number of accesses to each page, sorting the pages by number of
accesses, and choosing the most heavily accessed" (Section 3.2).  This
module implements that profiling pass over the functional interpreter's
memory-reference stream.
"""

from __future__ import annotations

from ..isa.interpreter import Interpreter
from .address import Segment, segment_of


class PageProfile:
    """Access counts per page, with segment attribution."""

    def __init__(self, page_size: int):
        self.page_size = page_size
        self.counts: "dict[int, int]" = {}

    def record(self, addr: int) -> None:
        page = addr // self.page_size
        self.counts[page] = self.counts.get(page, 0) + 1

    def pages_by_count(self) -> "list[tuple[int, int]]":
        """Pages sorted hottest first: ``[(page, count), ...]``."""
        return sorted(self.counts.items(), key=lambda item: (-item[1], item[0]))

    def segment_of_page(self, page: int) -> Segment:
        return segment_of(page * self.page_size)


def profile_program(program, page_size: int, limit=None) -> PageProfile:
    """Run ``program`` functionally and collect a page-access profile of
    its instruction fetches and data references."""
    profile = PageProfile(page_size)
    for _kind, addr in Interpreter(program).mem_refs(limit=limit):
        profile.record(addr)
    return profile
