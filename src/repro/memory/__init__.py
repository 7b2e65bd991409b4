"""Memory-system substrates: caches, main memory, paging, layout."""

from .address import (
    GLOBAL_BASE,
    HEAP_BASE,
    INSTRUCTION_BYTES,
    STACK_BASE,
    STACK_TOP,
    TEXT_BASE,
    Segment,
    page_number,
    segment_of,
)
from .cache import AccessResult, Cache, CacheStats, canonical_outcomes
from .layout import (
    LayoutSpec,
    LayoutSummary,
    build_page_table,
    choose_block_size,
    traditional_page_table,
)
from .mainmem import BankedMemory
from .page_table import PTE, PageTable
from .profile import PageProfile, profile_program

__all__ = [
    "GLOBAL_BASE",
    "HEAP_BASE",
    "INSTRUCTION_BYTES",
    "STACK_BASE",
    "STACK_TOP",
    "TEXT_BASE",
    "Segment",
    "page_number",
    "segment_of",
    "AccessResult",
    "Cache",
    "CacheStats",
    "canonical_outcomes",
    "LayoutSpec",
    "LayoutSummary",
    "build_page_table",
    "choose_block_size",
    "traditional_page_table",
    "BankedMemory",
    "PTE",
    "PageTable",
    "PageProfile",
    "profile_program",
]
