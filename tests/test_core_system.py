"""Integration tests for the DataScalar multi-node system."""

import pytest

from repro.baseline import PerfectSystem, TraditionalSystem
from repro.core import DataScalarSystem
from repro.isa import ProgramBuilder
from repro.params import (
    CacheConfig,
    MemoryConfig,
    NodeConfig,
    SystemConfig,
    TraditionalConfig,
)

PAGE = 4096


def _node(cache_bytes=2048, write_allocate=False):
    cache = CacheConfig(size_bytes=cache_bytes, assoc=1, line_size=32,
                        write_allocate=write_allocate)
    return NodeConfig(
        icache=CacheConfig(size_bytes=4096, assoc=1, line_size=32),
        dcache=cache,
        memory=MemoryConfig(page_size=PAGE),
    )


def _stream_program(words=2048, iters=1):
    """Sequential read-modify-write sweep over several pages."""
    b = ProgramBuilder("stream")
    arr = b.alloc_global("arr", words * 4)
    with b.repeat(iters, "r9"):
        b.li("r1", arr)
        b.li("r2", 0)
        with b.repeat(words, "r3"):
            b.lw("r4", "r1", 0)
            b.add("r2", "r2", "r4")
            b.sw("r2", "r1", 0)
            b.addi("r1", "r1", 4)
    b.halt()
    return b.build()


def _store_heavy_program(words=2048):
    """Mostly stores (the compress-like extreme)."""
    b = ProgramBuilder("stores")
    arr = b.alloc_global("arr", words * 4)
    b.li("r1", arr)
    b.li("r2", 1)
    with b.repeat(words, "r3"):
        b.sw("r2", "r1", 0)
        b.addi("r1", "r1", 4)
    b.halt()
    return b.build()


def _ds(num_nodes=2, node=None, block=1, interconnect="bus"):
    return DataScalarSystem(SystemConfig(
        num_nodes=num_nodes, node=node or _node(),
        distribution_block_pages=block, interconnect=interconnect,
    ))


def _trad(denom=2, node=None, block=1):
    return TraditionalSystem(TraditionalConfig(
        node=node or _node(), onchip_fraction_denom=denom,
        distribution_block_pages=block,
    ))


def test_all_nodes_commit_identical_instruction_counts():
    result = _ds(4).run(_stream_program())
    assert len(result.nodes) == 4
    assert result.instructions > 0
    # _collect() raises if counts diverge; also check IPC sanity.
    assert 0 < result.ipc < 8


def test_esp_only_broadcasts_on_the_bus():
    """ESP eliminates requests and write traffic from the interconnect:
    on either medium, every transfer is one line broadcast."""
    for interconnect in ("bus", "ring"):
        result = _ds(2, interconnect=interconnect).run(_stream_program())
        total_broadcasts = sum(n.broadcasts_sent for n in result.nodes)
        assert result.bus_transactions == total_broadcasts
        assert (result.bus_payload_bytes
                == _node().dcache.line_size * total_broadcasts)
        assert total_broadcasts > 0


def test_store_heavy_program_generates_zero_bus_traffic():
    """Stores complete at the owner and are dropped elsewhere; with a
    write-noallocate cache a pure-store sweep never uses the bus."""
    result = _ds(2).run(_store_heavy_program())
    assert result.bus_transactions == 0
    dropped = sum(n.dropped_stores for n in result.nodes)
    assert dropped > 0


def test_broadcast_work_splits_across_owners():
    result = _ds(2).run(_stream_program())
    sent = [n.broadcasts_sent for n in result.nodes]
    assert all(s > 0 for s in sent)
    assert abs(sent[0] - sent[1]) <= max(sent) * 0.5


def test_datascalar_beats_traditional_on_streaming():
    program = _stream_program()
    ds = _ds(2).run(program)
    trad = _trad(2).run(program)
    assert ds.ipc > trad.ipc


def test_traditional_degrades_with_less_onchip_memory():
    program = _stream_program()
    half = _trad(2).run(program)
    quarter = _trad(4).run(program)
    assert quarter.ipc <= half.ipc


def test_datascalar_degrades_less_than_traditional_with_more_nodes():
    program = _stream_program()
    ds_drop = _ds(2).run(program).ipc - _ds(4).run(program).ipc
    trad_drop = _trad(2).run(program).ipc - _trad(4).run(program).ipc
    assert ds_drop <= trad_drop + 0.05


def test_perfect_cache_is_an_upper_bound():
    program = _stream_program()
    perfect = PerfectSystem().run(program)
    ds = _ds(2).run(program)
    trad = _trad(2).run(program)
    assert perfect.ipc >= ds.ipc
    assert perfect.ipc >= trad.ipc


def test_traditional_sends_requests_and_writebacks():
    result = _trad(2).run(_stream_program())
    assert result.requests > 0
    assert result.writebacks_offchip + result.writethroughs_offchip > 0
    # A request and its response per off-chip fetch, one transfer per
    # write-back or write-around, and nothing else.
    assert result.bus_transactions == (2 * result.requests
                                       + result.writebacks_offchip
                                       + result.writethroughs_offchip)


def test_replicated_pages_eliminate_broadcasts():
    program = _stream_program(words=1024)
    # Replicate every global page the program touches.
    from repro.memory import GLOBAL_BASE
    pages = frozenset(range(GLOBAL_BASE // PAGE, GLOBAL_BASE // PAGE + 2))
    replicated = _ds(2).run(program, replicated_pages=pages)
    distributed = _ds(2).run(program)
    repl_bcasts = sum(n.broadcasts_sent for n in replicated.nodes)
    dist_bcasts = sum(n.broadcasts_sent for n in distributed.nodes)
    assert repl_bcasts < dist_bcasts
    assert replicated.ipc >= distributed.ipc


def test_single_node_datascalar_never_broadcasts():
    result = _ds(1).run(_stream_program(words=512))
    assert result.bus_transactions == 0
    assert result.nodes[0].remote_loads == 0


def test_limit_truncates_run_cleanly():
    result = _ds(2).run(_stream_program(), limit=500)
    assert result.instructions == 500


def test_iterating_workload_caches_second_pass():
    """On a second sweep that fits in cache, misses mostly disappear."""
    node = _node(cache_bytes=16 * 1024)
    one = _ds(2, node=node).run(_stream_program(words=512, iters=1))
    two = _ds(2, node=node).run(_stream_program(words=512, iters=2))
    one_b = sum(n.broadcasts_sent for n in one.nodes)
    two_b = sum(n.broadcasts_sent for n in two.nodes)
    assert two_b < one_b * 1.5  # second pass adds almost no broadcasts


def test_max_cycles_guard():
    from repro.errors import SimulationError
    config = SystemConfig(num_nodes=2, node=_node(), max_cycles=10,
                          distribution_block_pages=1)
    with pytest.raises(SimulationError):
        DataScalarSystem(config).run(_stream_program())


def test_write_allocate_generates_extra_broadcasts():
    """The paper's argument for write-noallocate under ESP: a write-miss
    allocation forces an inter-processor broadcast that the write then
    overwrites."""
    program = _store_heavy_program()
    noalloc = _ds(2, node=_node(write_allocate=False)).run(program)
    alloc = _ds(2, node=_node(write_allocate=True)).run(program)
    assert sum(n.broadcasts_sent for n in alloc.nodes) > 0
    assert noalloc.bus_transactions == 0


@pytest.mark.parametrize("num_nodes", [1, 2, 4])
def test_cache_work_is_one_access_per_record(num_nodes, monkeypatch):
    """The canonical cache outcomes are computed once for every node:
    a run makes one ``Cache.commit_access`` per load and store plus one
    per change of instruction line in the stream, at any node count."""
    from repro.experiments.config import datascalar_config
    from repro.isa import make_trace_source
    from repro.memory import Cache
    from repro.workloads import build_program

    program = build_program("compress")
    config = datascalar_config(num_nodes)
    line_mask = ~(config.node.icache.line_size - 1)
    lines = [dyn.pc & line_mask
             for dyn in make_trace_source(program, limit=4000)]
    line_changes = sum(1 for i, line in enumerate(lines)
                       if i == 0 or line != lines[i - 1])
    calls = []
    access = Cache.commit_access

    def counted(self, addr, is_write):
        calls.append(addr)
        return access(self, addr, is_write)

    monkeypatch.setattr(Cache, "commit_access", counted)
    result = DataScalarSystem(config).run(program, limit=4000)
    stats = result.nodes[0].pipeline
    assert (stats.loads + stats.stores, line_changes) == (725, 727)
    assert len(calls) == stats.loads + stats.stores + line_changes == 1452
