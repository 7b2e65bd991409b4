"""Address-space layout: replication and round-robin distribution.

Implements the paper's Section 3.2 methodology: the address space splits
into *replicated* pages (mapped at every node) and *communicated* pages,
which are distributed round-robin among the nodes in fixed-size blocks of
contiguous pages.  Larger blocks lengthen datathreads; the paper caps the
block below a fraction of both the text and the largest data segment so
no segment lands entirely on one node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from .address import Segment
from .page_table import PageTable


@dataclass
class LayoutSpec:
    """Inputs to the layout builder."""

    num_nodes: int
    page_size: int
    distribution_block_pages: int = 4
    replicate_text: bool = True
    #: Explicit page numbers to replicate (profile-selected hot pages).
    replicated_pages: "frozenset[int]" = field(default_factory=frozenset)
    #: Bytes of stack to map (stack growth is bounded by this estimate).
    stack_bytes: int = 64 * 1024

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigError("num_nodes must be >= 1")
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ConfigError("page_size must be a positive power of two")
        if self.distribution_block_pages < 1:
            raise ConfigError("distribution_block_pages must be >= 1")
        if self.stack_bytes <= 0:
            raise ConfigError("stack_bytes must be positive")


@dataclass
class LayoutSummary:
    """Replication counts per segment (the middle columns of Table 2)."""

    replicated_by_segment: "dict[Segment, int]"
    communicated_pages: int
    total_pages: int


def _segment_pages(program, spec: LayoutSpec):
    """Yield (segment, page_number) for every page the program can touch."""
    extents = program.segment_extents(stack_bytes=spec.stack_bytes)
    for segment in (Segment.TEXT, Segment.GLOBAL, Segment.HEAP, Segment.STACK):
        low, high = extents[segment]
        first = low // spec.page_size
        last = (high - 1) // spec.page_size
        for page in range(first, last + 1):
            yield segment, page


def build_page_table(program, spec: LayoutSpec) -> "tuple[PageTable, LayoutSummary]":
    """Construct the shared page table for ``program`` under ``spec``.

    Text pages are replicated when ``spec.replicate_text`` (the paper's
    simulated implementation replicates all text, obviating an instruction
    correspondence protocol).  Pages named in ``spec.replicated_pages`` are
    replicated.  Every other page is communicated: consecutive pages are
    grouped into blocks of ``distribution_block_pages`` and blocks are dealt
    round-robin to nodes 0..N-1 in address order.
    """
    table = PageTable(spec.page_size, spec.num_nodes)
    replicated_by_segment = {segment: 0 for segment in Segment}
    communicated = []
    for segment, page in _segment_pages(program, spec):
        replicate = (segment is Segment.TEXT and spec.replicate_text) or (
            page in spec.replicated_pages
        )
        if replicate:
            table.map_page(page, replicated=True)
            replicated_by_segment[segment] += 1
        else:
            communicated.append(page)
    for position, page in enumerate(communicated):
        block = position // spec.distribution_block_pages
        table.map_page(page, replicated=False,
                       owner=block % spec.num_nodes)
    summary = LayoutSummary(
        replicated_by_segment=replicated_by_segment,
        communicated_pages=len(communicated),
        total_pages=len(table),
    )
    return table, summary


def choose_block_size(program, page_size: int, num_nodes: int,
                      stack_bytes: int = 64 * 1024) -> int:
    """Largest distribution block (in pages) that still splits every segment.

    Mirrors the paper's rule: maximize the block (to lengthen datathreads)
    while keeping it smaller than ``1/num_nodes`` of both the text segment
    and the largest data segment, so neither is wholly owned by one node.
    """
    largest_data = max(program.global_bytes, program.heap_bytes, stack_bytes)
    cap_bytes = min(program.text_bytes, largest_data) // num_nodes
    cap_pages = max(1, cap_bytes // page_size)
    block = 1
    while block * 2 <= cap_pages:
        block *= 2
    return block


def traditional_page_table(program, denom: int, page_size: int,
                           distribution_block_pages: int = 4,
                           replicated_pages=frozenset()) -> PageTable:
    """Page table for the traditional system of Figure 6(a).

    The traditional machine has ``1/denom`` of memory on-chip.  We reuse
    the round-robin distribution over ``denom`` pseudo-owners and declare
    owner 0 the on-chip region — giving it exactly the memory one chip of
    a ``denom``-node DataScalar system holds, which is the paper's fair
    comparison.  Pages the DataScalar system would replicate are mapped
    on-chip too (they would live in every node's memory).
    """
    spec = LayoutSpec(
        num_nodes=denom,
        page_size=page_size,
        distribution_block_pages=distribution_block_pages,
        replicated_pages=frozenset(replicated_pages),
    )
    table, _ = build_page_table(program, spec)
    return table
