"""Property-based tests (hypothesis) for the memory substrates."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import Cache, LayoutSpec, PageTable, build_page_table
from repro.params import CacheConfig

LINE = 32
#: Small cache so replacements happen often: 4 sets x 2 ways.
SMALL = CacheConfig(size_bytes=256, assoc=2, line_size=LINE,
                    write_allocate=True)

#: Addresses covering 16 distinct lines mapped onto 4 sets.
addresses = st.integers(min_value=0, max_value=15).map(lambda i: i * LINE)
access_sequences = st.lists(st.tuples(addresses, st.booleans()),
                            max_size=200)


class ReferenceCache:
    """An obviously-correct LRU model: one OrderedDict per set."""

    def __init__(self, config):
        self.config = config
        self.sets = [OrderedDict() for _ in range(config.num_sets)]

    def _set(self, line):
        return self.sets[(line // self.config.line_size)
                         % self.config.num_sets]

    def access(self, addr, is_write):
        line = addr & ~(self.config.line_size - 1)
        ways = self._set(line)
        if line in ways:
            ways.move_to_end(line)
            if is_write:
                ways[line] = True
            return
        if is_write and not self.config.write_allocate:
            return
        if len(ways) >= self.config.assoc:
            ways.popitem(last=False)
        ways[line] = is_write

    def resident(self):
        return frozenset(line for ways in self.sets for line in ways)

    def dirty(self):
        return frozenset(line for ways in self.sets
                         for line, dirty in ways.items() if dirty)


@given(access_sequences)
@settings(max_examples=200, deadline=None)
def test_cache_matches_reference_lru_model(sequence):
    cache = Cache(SMALL)
    reference = ReferenceCache(SMALL)
    for addr, is_write in sequence:
        cache.commit_access(addr, is_write)
        reference.access(addr, is_write)
    assert cache.resident_lines() == reference.resident()
    assert cache.dirty_lines() == reference.dirty()


@given(access_sequences)
@settings(max_examples=100, deadline=None)
def test_cache_correspondence_property(sequence):
    """Identical commit-order access sequences leave identical caches —
    the invariant DataScalar's whole correspondence scheme rests on."""
    a, b = Cache(SMALL), Cache(SMALL)
    for addr, is_write in sequence:
        ra = a.commit_access(addr, is_write)
        rb = b.commit_access(addr, is_write)
        assert ra.hit == rb.hit
        assert ra.writeback == rb.writeback
    assert a.resident_lines() == b.resident_lines()


#: Small caches of every shape the resident-set contract must hold for.
cache_configs = st.builds(
    lambda line, assoc, sets, allocate: CacheConfig(
        size_bytes=line * assoc * sets, assoc=assoc, line_size=line,
        write_allocate=allocate),
    st.sampled_from([8, 16, 32]), st.sampled_from([1, 2, 4]),
    st.sampled_from([1, 2, 4]), st.booleans())


@given(cache_configs,
       st.lists(st.tuples(st.integers(min_value=0, max_value=1023),
                          st.booleans()), max_size=200))
@settings(max_examples=200, deadline=None)
def test_resident_set_mirrors_commit_outcomes(config, sequence):
    """What a memory system's set of resident lines relies on: an
    access hits exactly when its line is resident, and adding each fill
    and removing its victim keeps the set equal to the cache's lines."""
    cache = Cache(config)
    mirror = set()
    for addr, is_write in sequence:
        line = addr & ~(config.line_size - 1)
        resident = line in mirror
        result = cache.commit_access(addr, is_write)
        assert result.hit == resident
        if result.filled:
            mirror.add(line)
        if result.evicted is not None:
            mirror.remove(result.evicted)
        assert mirror == cache.resident_lines()


@given(access_sequences)
@settings(max_examples=100, deadline=None)
def test_cache_occupancy_bounded_by_capacity(sequence):
    cache = Cache(SMALL)
    max_lines = SMALL.size_bytes // SMALL.line_size
    for addr, is_write in sequence:
        cache.commit_access(addr, is_write)
        assert len(cache.resident_lines()) <= max_lines


@given(
    num_nodes=st.integers(min_value=1, max_value=6),
    block=st.integers(min_value=1, max_value=5),
    global_pages=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=80, deadline=None)
def test_layout_distribution_is_balanced(num_nodes, block, global_pages):
    """Round-robin block distribution never skews owners by more than
    one block."""
    from repro.isa import ProgramBuilder

    b = ProgramBuilder()
    b.alloc_global("g", global_pages * 4096)
    b.halt()
    program = b.build()
    spec = LayoutSpec(num_nodes=num_nodes, page_size=4096,
                      distribution_block_pages=block)
    table, summary = build_page_table(program, spec)
    counts = table.counts()["per_owner"]
    assert sum(counts) == summary.communicated_pages
    assert max(counts) - min(counts) <= block


@given(st.lists(st.integers(min_value=0, max_value=1 << 30), min_size=1,
                max_size=50))
@settings(max_examples=100, deadline=None)
def test_page_table_fallback_is_deterministic(addrs):
    a = PageTable(4096, num_owners=4)
    b = PageTable(4096, num_owners=4)
    for addr in addrs:
        assert a.owner_of(addr) == b.owner_of(addr)
        assert a.is_replicated(addr) == b.is_replicated(addr)
