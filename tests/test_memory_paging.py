"""Unit tests for the page table, profiling, and layout builder."""

import pytest

from repro.errors import ConfigError, MemoryError_
from repro.isa import Interpreter, ProgramBuilder
from repro.memory import (
    GLOBAL_BASE,
    HEAP_BASE,
    TEXT_BASE,
    LayoutSpec,
    PageTable,
    Segment,
    build_page_table,
    choose_block_size,
    profile_program,
    traditional_page_table,
)

PAGE = 4096


def _program(global_bytes=4 * PAGE, heap_bytes=2 * PAGE, touch_words=64):
    b = ProgramBuilder("layout-test")
    garr = b.alloc_global("g", global_bytes)
    harr = b.alloc_heap("h", heap_bytes)
    b.li("r1", garr)
    b.li("r3", harr)
    with b.repeat(touch_words, "r2"):
        b.lw("r4", "r1", 0)
        b.sw("r4", "r3", 0)
        b.addi("r1", "r1", 4)
        b.addi("r3", "r3", 4)
    b.halt()
    return b.build()


# ----------------------------------------------------------------------
# PageTable.
# ----------------------------------------------------------------------
def test_page_table_replicated_vs_owned():
    table = PageTable(PAGE, num_owners=4)
    table.map_page(0, replicated=True)
    table.map_page(1, replicated=False, owner=2)
    assert table.entry_for(0).replicated
    assert not table.entry_for(PAGE).replicated
    assert table.entry_for(PAGE).owner == 2
    assert table.entry_for(0).owner is None
    assert table.is_local(0, 3)
    assert table.is_local(PAGE, 2)
    assert not table.is_local(PAGE, 0)


def test_page_table_remap_rejected():
    table = PageTable(PAGE, num_owners=2)
    table.map_page(5, replicated=True)
    with pytest.raises(MemoryError_):
        table.map_page(5, replicated=False, owner=0)


def test_page_table_owner_range_checked():
    table = PageTable(PAGE, num_owners=2)
    with pytest.raises(MemoryError_):
        table.map_page(0, replicated=False, owner=2)


def test_page_table_unmapped_fallback_counts():
    table = PageTable(PAGE, num_owners=2)
    owner = table.entry_for(123 * PAGE).owner
    assert owner == 123 % 2
    assert table.unmapped_accesses == 1
    # The synthesized entry is cached; a second access is not "unmapped".
    table.entry_for(123 * PAGE)
    assert table.unmapped_accesses == 1


def test_page_table_counts_summary():
    table = PageTable(PAGE, num_owners=2)
    table.map_page(0, replicated=True)
    table.map_page(1, replicated=False, owner=0)
    table.map_page(2, replicated=False, owner=1)
    counts = table.counts()
    assert counts["replicated"] == 1
    assert counts["per_owner"] == [1, 1]


def test_page_table_validation():
    with pytest.raises(MemoryError_):
        PageTable(1000, 2)
    with pytest.raises(MemoryError_):
        PageTable(PAGE, 0)


# ----------------------------------------------------------------------
# Profiling.
# ----------------------------------------------------------------------
def test_profile_counts_pages_and_kinds():
    program = _program()
    profile = profile_program(program, PAGE)
    run = Interpreter(program).run()
    # One count per instruction fetch and one per data reference.
    assert sum(profile.counts.values()) == (
        run.instructions + run.loads + run.stores)
    text_page = TEXT_BASE // PAGE
    assert profile.counts[text_page] > 0
    hottest = profile.pages_by_count()[0][0]
    assert profile.counts[hottest] == max(profile.counts.values())


def test_profile_segment_helpers():
    program = _program()
    profile = profile_program(program, PAGE)
    assert {Segment.TEXT, Segment.GLOBAL} <= {
        profile.segment_of_page(p) for p in profile.counts}


# ----------------------------------------------------------------------
# Layout.
# ----------------------------------------------------------------------
def test_layout_replicates_text_and_distributes_data():
    program = _program()
    spec = LayoutSpec(num_nodes=4, page_size=PAGE, distribution_block_pages=1)
    table, summary = build_page_table(program, spec)
    assert table.entry_for(TEXT_BASE).replicated
    assert not table.entry_for(GLOBAL_BASE).replicated
    assert summary.replicated_by_segment[Segment.TEXT] >= 1
    # Round-robin with block 1: consecutive global pages rotate owners.
    owners = [table.entry_for(GLOBAL_BASE + i * PAGE).owner
              for i in range(4)]
    assert owners == [0, 1, 2, 3]


def test_layout_block_distribution_groups_pages():
    program = _program(global_bytes=8 * PAGE)
    spec = LayoutSpec(num_nodes=2, page_size=PAGE, distribution_block_pages=2)
    table, _ = build_page_table(program, spec)
    owners = [table.entry_for(GLOBAL_BASE + i * PAGE).owner
              for i in range(8)]
    assert owners[0] == owners[1]
    assert owners[2] == owners[3]
    assert owners[0] != owners[2]


def test_layout_explicit_replicated_pages():
    program = _program()
    hot = GLOBAL_BASE // PAGE
    spec = LayoutSpec(num_nodes=2, page_size=PAGE,
                      replicated_pages=frozenset({hot}))
    table, summary = build_page_table(program, spec)
    assert table.entry_for(GLOBAL_BASE).replicated
    assert summary.replicated_by_segment[Segment.GLOBAL] == 1


def test_layout_without_text_replication():
    program = _program()
    spec = LayoutSpec(num_nodes=2, page_size=PAGE, replicate_text=False)
    table, summary = build_page_table(program, spec)
    assert not table.entry_for(TEXT_BASE).replicated
    assert summary.replicated_by_segment[Segment.TEXT] == 0


def test_layout_covers_all_segments():
    program = _program()
    spec = LayoutSpec(num_nodes=2, page_size=PAGE)
    table, summary = build_page_table(program, spec)
    assert summary.total_pages == len(table)
    assert table.unmapped_accesses == 0
    table.entry_for(HEAP_BASE)
    assert table.unmapped_accesses == 0  # heap is mapped


def test_choose_block_size_splits_segments():
    program = _program(global_bytes=32 * PAGE)
    block = choose_block_size(program, PAGE, num_nodes=4)
    # Must not let one node own the whole text segment.
    assert block * PAGE * 4 <= max(program.text_bytes, PAGE * 4)
    assert block >= 1


def test_traditional_page_table_onchip_is_owner_zero():
    program = _program(global_bytes=8 * PAGE)
    table = traditional_page_table(program, denom=4, page_size=PAGE,
                                   distribution_block_pages=1)
    onchip = sum(
        1 for i in range(8) if table.is_local(GLOBAL_BASE + i * PAGE, 0)
    )
    assert onchip == 2  # 1/4 of the 8 global pages


def test_layout_spec_validation():
    with pytest.raises(ConfigError):
        LayoutSpec(num_nodes=0, page_size=PAGE)
    with pytest.raises(ConfigError):
        LayoutSpec(num_nodes=2, page_size=1000)
    with pytest.raises(ConfigError):
        LayoutSpec(num_nodes=2, page_size=PAGE, distribution_block_pages=0)
    with pytest.raises(ConfigError):
        LayoutSpec(num_nodes=2, page_size=PAGE, stack_bytes=0)
