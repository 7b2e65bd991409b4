"""Unit tests for the traditional system's memory paths."""

from collections import deque

import pytest

from repro.baseline.traditional import TraditionalMemory
from repro.errors import ProtocolError
from repro.interconnect import Bus
from repro.isa.opcodes import OpClass
from repro.isa.trace import DynInstr
from repro.memory import PageTable, canonical_outcomes
from repro.params import (
    CacheConfig,
    MemoryConfig,
    NodeConfig,
    TraditionalConfig,
)

PAGE = 4096
LINE = 32

ONCHIP = 0x100          # page 0 -> owner 0 = on-chip
OFFCHIP = PAGE + 0x100  # page 1 -> owner 1 = off-chip


def _memory(write_allocate=False):
    table = PageTable(PAGE, num_owners=2)
    table.map_page(0, replicated=False, owner=0)
    table.map_page(1, replicated=False, owner=1)
    node = NodeConfig(
        icache=CacheConfig(size_bytes=1024, assoc=1, line_size=LINE),
        dcache=CacheConfig(size_bytes=1024, assoc=1, line_size=LINE,
                           write_allocate=write_allocate),
        memory=MemoryConfig(onchip_latency=8, offchip_latency=8,
                            page_size=PAGE),
    )
    config = TraditionalConfig(node=node, onchip_fraction_denom=2)
    bus = Bus(config.bus)
    return TraditionalMemory(config, table, bus), bus


def _committer(memory):
    """``commit(now, addr, is_store, handle)`` commits one memory record,
    in program order, with the outcome ``canonical_outcomes`` gives it."""
    pending = deque()

    def feed():
        while True:
            yield pending.popleft()

    node = memory.config.node
    records = canonical_outcomes(feed(), node.icache, node.dcache)

    def commit(now, addr, is_store=False, handle=None):
        op_class = OpClass.STORE if is_store else OpClass.LOAD
        pending.append(DynInstr(0, 0x400000, int(op_class), addr, 4))
        memory.commit_mem(now, next(records), handle)

    return commit


def test_onchip_miss_never_uses_the_bus():
    memory, bus = _memory()
    handle = memory.load_issue(0, ONCHIP, 4)
    assert handle.ready is not None
    assert bus.transactions == 0
    assert memory.onchip_fills == 1


def test_offchip_miss_pays_request_and_response():
    memory, bus = _memory()
    handle = memory.load_issue(0, OFFCHIP, 4)
    assert handle.ready is not None
    assert memory.requests == 1
    # An address-only request, then the line back.
    assert bus.transactions == 2
    assert bus.payload_bytes == LINE


def test_offchip_latency_exceeds_onchip():
    memory, _ = _memory()
    onchip = memory.load_issue(0, ONCHIP, 4)
    offchip = memory.load_issue(0, OFFCHIP, 4)
    assert offchip.ready > onchip.ready


def test_inflight_line_merges_without_second_request():
    memory, _ = _memory()
    first = memory.load_issue(0, OFFCHIP, 4)
    second = memory.load_issue(1, OFFCHIP + 4, 4)
    assert memory.requests == 1
    assert second.ready is not None


def test_commit_fills_cache_for_later_hits():
    memory, _ = _memory()
    handle = memory.load_issue(0, OFFCHIP, 4)
    _committer(memory)(100, OFFCHIP, handle=handle)
    later = memory.load_issue(200, OFFCHIP, 4)
    assert later.issue_hit is True


def test_store_miss_writes_through_offchip():
    memory, bus = _memory()
    _committer(memory)(0, OFFCHIP, is_store=True)
    assert memory.writethroughs_offchip == 1
    # Only the stored word crosses the bus.
    assert bus.transactions == 1
    assert bus.payload_bytes == 4


def test_store_miss_onchip_stays_local():
    memory, bus = _memory()
    _committer(memory)(0, ONCHIP, is_store=True)
    assert memory.writethroughs_offchip == 0
    assert bus.transactions == 0


def test_dirty_offchip_eviction_generates_writeback():
    memory, bus = _memory()
    commit = _committer(memory)
    # Fill + dirty the off-chip line.
    handle = memory.load_issue(0, OFFCHIP, 4)
    commit(10, OFFCHIP, handle=handle)
    commit(20, OFFCHIP, is_store=True)
    # Evict it with a conflicting line (1KB direct-mapped).
    conflict = OFFCHIP + 1024
    handle2 = memory.load_issue(30, conflict, 4)
    commit(90, conflict, handle=handle2)
    assert memory.writebacks_offchip == 1


def test_write_allocate_store_miss_fetches_line():
    memory, _ = _memory(write_allocate=True)
    _committer(memory)(0, OFFCHIP, is_store=True)
    assert memory.requests == 1  # the fetch-for-write went off-chip


def test_ifetch_offchip_uses_bus():
    memory, bus = _memory()
    ready = memory.ifetch_miss(0, PAGE + 0x40)
    assert ready > 8
    assert memory.requests == 1


def test_validate_final_state_catches_leaked_dcub():
    memory, _ = _memory()
    memory.load_issue(0, OFFCHIP, 4)
    from repro.errors import ProtocolError
    with pytest.raises(ProtocolError):
        memory.validate_final_state()


def test_resident_set_is_checked_against_the_canonical_outcome():
    memory, _ = _memory()
    memory.resident.add(OFFCHIP & ~(LINE - 1))  # never filled canonically
    with pytest.raises(ProtocolError, match=r"traditional: line .* cycle 5"):
        _committer(memory)(5, OFFCHIP)
