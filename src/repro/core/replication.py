"""Static replication policy (paper Section 3.2).

"We replicate data statically by duplicating the most heavily accessed
pages in each processor's local memory. ... We selected the pages to
replicate by running the benchmark, saving the number of accesses to each
page, sorting the pages by number of accesses, and choosing the most
heavily accessed pages."
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memory.address import Segment
from ..memory.layout import choose_block_size
from ..memory.profile import PageProfile


def select_hot_pages(profile: PageProfile,
                     budget_pages: int) -> "frozenset[int]":
    """The ``budget_pages`` most-accessed pages."""
    return frozenset(page for page, _count
                     in profile.pages_by_count()[:max(budget_pages, 0)])


@dataclass
class ReplicationPlan:
    """Everything the Table 2 methodology decides per benchmark."""

    replicated_pages: "frozenset[int]"
    distribution_block_pages: int
    profile: PageProfile

    def replicated_by_segment(self) -> "dict[Segment, int]":
        counts = {segment: 0 for segment in Segment}
        for page in self.replicated_pages:
            counts[self.profile.segment_of_page(page)] += 1
        return counts


def plan_replication(program, profile: PageProfile, num_nodes: int,
                     budget_pages: int) -> ReplicationPlan:
    """Pick ``program``'s hot pages from its ``profile`` plus a
    distribution block size, mirroring the paper's per-benchmark
    methodology: replicate the hottest pages, and maximize the block
    while keeping it smaller than ``1/num_nodes`` of the text and largest
    data segments.  Pages are ``profile.page_size`` bytes."""
    return ReplicationPlan(
        replicated_pages=select_hot_pages(profile, budget_pages),
        distribution_block_pages=choose_block_size(
            program, profile.page_size, num_nodes),
        profile=profile,
    )
