"""Unit tests for DataScalarNode's issue/commit memory paths."""

from collections import deque

import pytest

from repro.core.node import DataScalarNode
from repro.errors import ProtocolError, SimulationError
from repro.interconnect import Bus
from repro.isa.opcodes import OpClass
from repro.isa.trace import DynInstr
from repro.memory import PageTable, canonical_outcomes
from repro.memory.cache import AccessResult
from repro.params import BusConfig, CacheConfig, MemoryConfig, NodeConfig

PAGE = 4096
LINE = 32


class Delivered:
    """Captures broadcasts the node sends (as (src, line, last_arrival))."""

    def __init__(self):
        self.events = []

    def __call__(self, src, line, arrivals):
        arrival = max(a for a in arrivals if a is not None)
        self.events.append((src, line, arrival))


def _node(node_id=0, write_allocate=False):
    table = PageTable(PAGE, num_owners=2)
    table.map_page(0, replicated=True)             # page 0: replicated
    table.map_page(1, replicated=False, owner=0)   # page 1: owned by n0
    table.map_page(2, replicated=False, owner=1)   # page 2: owned by n1
    config = NodeConfig(
        icache=CacheConfig(size_bytes=1024, assoc=1, line_size=LINE),
        dcache=CacheConfig(size_bytes=1024, assoc=1, line_size=LINE,
                           write_allocate=write_allocate),
        memory=MemoryConfig(onchip_latency=8, page_size=PAGE),
    )
    delivered = Delivered()
    medium = Bus(BusConfig(), num_nodes=2)
    node = DataScalarNode(node_id, config, table, medium,
                          delivered, num_peers=1)
    return node, delivered, table


REPL = 0x100           # in replicated page 0
OWNED = PAGE + 0x100   # in page 1 (owned by node 0)
REMOTE = 2 * PAGE + 0x100  # in page 2 (owned by node 1)
TEXT = 0x400000


def _line(addr):
    return addr & ~(LINE - 1)


def _record(addr, is_store=False):
    op_class = OpClass.STORE if is_store else OpClass.LOAD
    return DynInstr(0, TEXT, int(op_class), addr, 4)


def _committer(node):
    """``commit(now, addr, is_store, handle)`` commits one memory record
    at ``node``, in program order, with the canonical outcome the stage
    every system runs (``canonical_outcomes``) gives it."""
    pending = deque()

    def feed():
        while True:
            yield pending.popleft()

    records = canonical_outcomes(feed(), node.config.icache,
                                 node.config.dcache)

    def commit(now, addr, is_store=False, handle=None):
        pending.append(_record(addr, is_store))
        node.commit_mem(now, next(records), handle)

    return commit


def test_replicated_load_completes_locally_without_broadcast():
    node, delivered, _ = _node()
    handle = node.load_issue(0, REPL, 4)
    assert handle.ready is not None
    assert handle.issue_hit is False  # cold miss, served by local memory
    assert delivered.events == []


def test_owned_load_broadcasts_eagerly():
    node, delivered, _ = _node()
    handle = node.load_issue(0, OWNED, 4)
    assert handle.ready is not None
    assert len(delivered.events) == 1
    src, line, arrival = delivered.events[0]
    assert src == 0
    assert line == _line(OWNED)
    assert arrival > handle.ready  # bus transfer happens after local read
    assert node.broadcaster.stats.late == 0


def test_remote_load_waits_in_bshr():
    node, delivered, _ = _node()
    handle = node.load_issue(0, REMOTE, 4)
    assert handle.ready is None
    assert node.bshr.stats.waits == 1
    node.bshr.arrival(50, _line(REMOTE))
    assert handle.ready is not None
    assert delivered.events == []  # non-owners never send


def test_second_load_to_inflight_line_merges_in_dcub():
    node, delivered, _ = _node()
    first = node.load_issue(0, REMOTE, 4)
    second = node.load_issue(1, REMOTE + 4, 4)
    assert node.bshr.stats.waits == 1  # only one BSHR entry per line
    assert node.dcub.merges == 1
    node.bshr.arrival(60, _line(REMOTE))
    assert first.ready is not None and second.ready is not None


def test_issue_hit_after_commit_fill():
    node, _, _ = _node()
    commit = _committer(node)
    handle = node.load_issue(0, OWNED, 4)
    commit(20, OWNED, handle=handle)
    later = node.load_issue(30, OWNED, 4)
    assert later.issue_hit is True
    assert later.ready == 31  # single-cycle cache hit


def test_commit_releases_dcub():
    node, _, _ = _node()
    commit = _committer(node)
    handle = node.load_issue(0, OWNED, 4)
    assert node.dcub.occupancy() == 1
    commit(20, OWNED, handle=handle)
    assert node.dcub.occupancy() == 0


def test_false_hit_triggers_reparative_broadcast_at_owner():
    """Load issue-hits, but a conflicting committed eviction makes the
    canonical outcome a miss -> the owner must broadcast late."""
    node, delivered, _ = _node()
    commit = _committer(node)
    # Fill the line, then issue a load that hits.
    fill = node.load_issue(0, OWNED, 4)
    commit(10, OWNED, handle=fill)
    victim = node.load_issue(20, OWNED, 4)
    assert victim.issue_hit is True
    # A conflicting line (same set: +1024 in a 1KB direct-mapped cache)
    # commits first and evicts OWNED.
    conflict_addr = OWNED + 1024
    conflict = node.load_issue(21, conflict_addr, 4)
    commit(30, conflict_addr, handle=conflict)
    before = node.broadcaster.stats.late
    commit(40, OWNED, handle=victim)
    assert node.tracker.stats.false_hits == 1
    assert node.broadcaster.stats.late == before + 1


def test_false_hit_at_nonowner_schedules_squash():
    node, _, _ = _node()
    commit = _committer(node)
    # Bring the remote line in and commit it.
    first = node.load_issue(0, REMOTE, 4)
    node.bshr.arrival(5, _line(REMOTE))
    commit(10, REMOTE, handle=first)
    # Issue-hit on it, then evict via a conflicting commit.
    victim = node.load_issue(20, REMOTE, 4)
    conflict_addr = REMOTE + 1024
    conflict = node.load_issue(21, conflict_addr, 4)
    node.bshr.arrival(25, _line(conflict_addr))
    commit(30, conflict_addr, handle=conflict)
    commit(40, REMOTE, handle=victim)
    # The owner will broadcast for this canonical miss; we must squash it.
    node.bshr.arrival(50, _line(REMOTE))
    assert node.bshr.stats.squashes == 1


def test_store_to_owned_page_completes_locally():
    node, delivered, _ = _node()
    _committer(node)(0, OWNED, is_store=True)
    assert node.local_stores == 1
    assert delivered.events == []


def test_store_to_remote_page_dropped():
    node, delivered, _ = _node()
    _committer(node)(0, REMOTE, is_store=True)
    assert node.dropped_stores == 1
    assert delivered.events == []


def test_store_write_allocate_settles_canonical_miss():
    """With write-allocate, a store miss fetches the line: the owner
    must fund a broadcast (late), the non-owner schedules a discard."""
    owner, delivered, _ = _node(node_id=0, write_allocate=True)
    _committer(owner)(0, OWNED, is_store=True)
    assert owner.broadcaster.stats.late == 1
    nonowner, delivered2, _ = _node(node_id=1, write_allocate=True)
    _committer(nonowner)(0, OWNED, is_store=True)
    assert nonowner.tracker.stats.scheduled_discards == 1


def test_ifetch_hits_after_first_line_fill():
    """The stream names a line's first fetch as a miss and a return to
    it as a hit, and the node serves the miss from local memory."""
    node, _, _ = _node()
    pc_line = TEXT
    other = TEXT + LINE
    pcs = [pc_line, pc_line + 4, other, pc_line]
    records = list(canonical_outcomes(
        (DynInstr(seq, pc, int(OpClass.IALU))
         for seq, pc in enumerate(pcs)),
        node.config.icache, node.config.dcache))
    assert [dyn.imiss_line for dyn in records] == [pc_line, None, other,
                                                    None]
    assert node.ifetch_miss(0, pc_line) > 0  # local memory latency


def test_commit_counts_canonical_dcache_misses():
    node, _, _ = _node()
    commit = _committer(node)
    commit(0, OWNED)
    commit(1, OWNED + 4)
    commit(2, OWNED, is_store=True)
    commit(3, REPL)
    assert (node.dcache_accesses, node.dcache_misses) == (4, 2)


def test_commit_without_canonical_outcome_is_a_typed_error():
    node, _, _ = _node()
    with pytest.raises(SimulationError, match="canonical_outcomes"):
        node.commit_mem(0, _record(OWNED), None)


def test_resident_set_is_checked_against_the_canonical_outcome():
    """A line the issue-time view holds but the canonical access misses
    (or a fill whose victim the view lacks) is a protocol violation
    named by node, cycle and line."""
    node, _, _ = _node(node_id=1)
    node.resident.add(_line(OWNED))  # never filled canonically
    with pytest.raises(ProtocolError,
                       match=rf"node 1: line {_line(OWNED):#x} .* cycle 7"):
        _committer(node)(7, OWNED)
    node, _, _ = _node()
    dyn = _record(OWNED)
    dyn.dcache_result = AccessResult(hit=False, filled=True, writeback=None,
                                     evicted=_line(REPL))
    with pytest.raises(ProtocolError, match=f"{_line(REPL):#x}"):
        node.commit_mem(9, dyn, None)


def test_validate_final_state_catches_stranded_wait():
    node, _, _ = _node()
    node.load_issue(0, REMOTE, 4)
    with pytest.raises(ProtocolError):
        node.validate_final_state()
