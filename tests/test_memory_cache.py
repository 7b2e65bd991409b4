"""Unit tests for the set-associative cache model."""

import pytest

from repro.errors import ConfigError
from repro.memory import Cache
from repro.params import CacheConfig


def _cache(size=1024, assoc=2, line=32, **kw):
    return Cache(CacheConfig(size_bytes=size, assoc=assoc, line_size=line,
                             **kw))


def test_read_miss_then_hit():
    cache = _cache()
    first = cache.commit_access(0x100, is_write=False)
    second = cache.commit_access(0x104, is_write=False)
    assert not first.hit and first.filled
    assert second.hit and not second.filled
    assert cache.stats.read_misses == 1
    assert cache.stats.read_hits == 1


def test_lru_replacement_order():
    cache = _cache(size=64, assoc=2, line=32)  # 1 set, 2 ways
    cache.commit_access(0x0, False)
    cache.commit_access(0x40, False)
    cache.commit_access(0x0, False)  # touch 0x0 -> LRU victim is 0x40
    result = cache.commit_access(0x80, False)
    assert result.evicted == 0x40
    assert cache.resident_lines() == {0x0, 0x80}


def test_writeback_of_dirty_victim():
    cfg = CacheConfig(size_bytes=64, assoc=2, line_size=32,
                      write_allocate=True)
    cache = Cache(cfg)
    cache.commit_access(0x0, is_write=True)  # allocate dirty
    cache.commit_access(0x40, is_write=False)
    result = cache.commit_access(0x80, is_write=False)  # evicts dirty 0x0
    assert result.writeback == 0x0
    assert cache.stats.writebacks == 1


def test_write_noallocate_miss_bypasses_cache():
    cfg = CacheConfig(size_bytes=1024, assoc=2, line_size=32,
                      write_allocate=False)
    cache = Cache(cfg)
    result = cache.commit_access(0x100, is_write=True)
    assert not result.hit and not result.filled
    assert 0x100 not in cache.resident_lines()
    assert cache.stats.writethroughs == 1  # went around the cache


def test_write_hit_marks_dirty_under_writeback():
    cfg = CacheConfig(size_bytes=1024, assoc=2, line_size=32,
                      write_allocate=False)
    cache = Cache(cfg)
    cache.commit_access(0x100, is_write=False)
    cache.commit_access(0x104, is_write=True)
    assert 0x100 in cache.dirty_lines()


def test_resident_lines_snapshot():
    cache = _cache()
    cache.commit_access(0x100, is_write=False)
    cache.commit_access(0x204, is_write=False)
    assert cache.resident_lines() == {0x100, 0x200}


def test_identical_access_sequences_leave_identical_state():
    """The correspondence property: state is a function of the sequence."""
    sequence = [(0x0, False), (0x40, True), (0x80, False), (0x0, False),
                (0xC0, True), (0x40, False)]
    a = _cache(size=128, assoc=2, line=32, write_allocate=True)
    b = _cache(size=128, assoc=2, line=32, write_allocate=True)
    for addr, is_write in sequence:
        a.commit_access(addr, is_write)
        b.commit_access(addr, is_write)
    assert a.resident_lines() == b.resident_lines()
    assert a.dirty_lines() == b.dirty_lines()


def test_config_validation():
    with pytest.raises(ConfigError):
        CacheConfig(size_bytes=1000, assoc=3, line_size=32)
    with pytest.raises(ConfigError):
        CacheConfig(size_bytes=100, assoc=1, line_size=32)
    with pytest.raises(ConfigError):
        CacheConfig(hit_latency=0)


def test_canonical_outcomes_replay_private_caches():
    """The stage's outcomes are those a private pair of caches gives the
    same stream: an I-cache access at each change of instruction line,
    a D-cache access per load and store, in program order."""
    from repro.isa import Interpreter
    from repro.isa.opcodes import OpClass
    from repro.memory import canonical_outcomes
    from repro.workloads import build_program

    icache = CacheConfig(size_bytes=256, assoc=1, line_size=16)
    dcache = CacheConfig(size_bytes=512, assoc=2, line_size=32,
                         write_allocate=True)
    stream = list(canonical_outcomes(
        Interpreter(build_program("compress")).trace(limit=3000),
        icache, dcache))
    iref, dref = Cache(icache), Cache(dcache)
    previous = None
    misses = 0
    for dyn in stream:
        line = dyn.pc & ~(icache.line_size - 1)
        expected = None
        if line != previous and not iref.commit_access(line, False).hit:
            expected = line
            misses += 1
        previous = line
        assert dyn.imiss_line == expected
        if dyn.op_class in (OpClass.LOAD, OpClass.STORE):
            result = dref.commit_access(dyn.addr,
                                        dyn.op_class == OpClass.STORE)
            assert dyn.dcache_result == result
        else:
            assert dyn.dcache_result is None
    assert misses and dref.stats.writebacks
    assert dref.stats.read_misses + dref.stats.write_misses
