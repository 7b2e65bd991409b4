"""Set-associative cache model with LRU replacement.

The model serves two distinct users:

* trace-level studies (paper Sections 3.1/3.2) call :meth:`Cache.access`,
  which applies the configured write policy and returns what moved on and
  off chip; and
* the timing models call the split primitives — :meth:`Cache.lookup`
  (non-mutating probe at issue time) and :meth:`Cache.commit_access`
  (the mutating, canonical access applied in program order at commit) —
  because DataScalar's cache-correspondence protocol requires that cache
  state change only at commit (paper Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..params import CacheConfig


@dataclass
class AccessResult:
    """Outcome of one cache access.

    ``filled`` is True when the access allocated a line; ``writeback``
    carries the line-aligned address of an evicted dirty line (write-back
    caches only), or ``None``.
    """

    hit: bool
    filled: bool
    writeback: "int | None"
    evicted: "int | None"


# Shared immutable results for the allocation-heavy common outcomes
# (plain hit, fill without eviction, write-around miss).  Consumers
# only ever read the fields, so identity reuse is safe.
_HIT = AccessResult(hit=True, filled=False, writeback=None, evicted=None)
_FILL = AccessResult(hit=False, filled=True, writeback=None, evicted=None)
_MISS = AccessResult(hit=False, filled=False, writeback=None, evicted=None)


class CacheStats:
    """Running hit/miss/writeback counters."""

    __slots__ = ("read_hits", "read_misses", "write_hits", "write_misses",
                 "writebacks", "writethroughs")

    def __init__(self):
        self.read_hits = 0
        self.read_misses = 0
        self.write_hits = 0
        self.write_misses = 0
        self.writebacks = 0
        self.writethroughs = 0

    @property
    def accesses(self) -> int:
        return (self.read_hits + self.read_misses
                + self.write_hits + self.write_misses)

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


class Cache:
    """One cache level.  Lines are tracked by line-aligned address."""

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self._line_shift = config.line_size.bit_length() - 1
        self._num_sets = config.num_sets
        self._set_mask = self._num_sets - 1
        # Each set is a list of [line_addr, dirty] pairs in LRU -> MRU order.
        self._sets = [[] for _ in range(self._num_sets)]
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Address helpers.
    # ------------------------------------------------------------------
    def line_addr(self, addr: int) -> int:
        """Line-aligned address containing ``addr``."""
        return (addr >> self._line_shift) << self._line_shift

    def _set_index(self, line: int) -> int:
        return (line >> self._line_shift) & self._set_mask

    # ------------------------------------------------------------------
    # Non-mutating primitives (issue-time probes).
    # ------------------------------------------------------------------
    def lookup(self, addr: int) -> bool:
        """True when the line containing ``addr`` is resident.  No state
        (not even LRU order) changes — safe for issue-time probes."""
        shift = self._line_shift
        line = (addr >> shift) << shift
        for entry in self._sets[(addr >> shift) & self._set_mask]:
            if entry[0] == line:
                return True
        return False

    def resident_lines(self) -> "frozenset[int]":
        """Snapshot of every resident line address (correspondence checks)."""
        return frozenset(
            entry[0] for ways in self._sets for entry in ways
        )

    def dirty_lines(self) -> "frozenset[int]":
        """Snapshot of resident dirty line addresses."""
        return frozenset(
            entry[0] for ways in self._sets for entry in ways if entry[1]
        )

    # ------------------------------------------------------------------
    # Mutating primitives (commit-time state updates).
    # ------------------------------------------------------------------
    def insert(self, addr: int, dirty: bool = False):
        """Allocate the line containing ``addr`` at MRU.

        Returns ``(evicted_line, was_dirty)`` when a victim was replaced,
        else ``None``.  Inserting a resident line refreshes LRU order and
        ORs in the dirty bit.
        """
        line = self.line_addr(addr)
        ways = self._sets[self._set_index(line)]
        for position, entry in enumerate(ways):
            if entry[0] == line:
                entry[1] = entry[1] or dirty
                ways.append(ways.pop(position))
                return None
        victim = None
        if len(ways) >= self.config.assoc:
            evicted_line, was_dirty = ways.pop(0)
            victim = (evicted_line, was_dirty)
        ways.append([line, dirty])
        return victim

    # ------------------------------------------------------------------
    # Combined canonical access (commit order).
    # ------------------------------------------------------------------
    def commit_access(self, addr: int, is_write: bool) -> AccessResult:
        """Apply one access in commit order under the configured policies.

        This is *the* canonical access the correspondence protocol keys
        off: identical call sequences leave identical cache states.

        One scan of the set serves residency, LRU refresh, and
        dirty-marking together (this is the commit hot path).
        """
        stats = self.stats
        config = self.config
        shift = self._line_shift
        line = (addr >> shift) << shift
        ways = self._sets[(addr >> shift) & self._set_mask]
        entry = None
        for position, candidate in enumerate(ways):
            if candidate[0] == line:
                entry = candidate
                break
        writeback = None
        evicted = None
        filled = False
        if entry is not None:
            ways.append(ways.pop(position))  # refresh LRU -> MRU
            if is_write:
                stats.write_hits += 1
                if config.write_policy == "writeback":
                    entry[1] = True
                else:
                    stats.writethroughs += 1
            else:
                stats.read_hits += 1
            return _HIT
        if is_write:
            stats.write_misses += 1
            if config.write_allocate:
                dirty = config.write_policy == "writeback"
                victim = None
                if len(ways) >= config.assoc:
                    victim = ways.pop(0)
                ways.append([line, dirty])
                filled = True
                if victim is not None:
                    evicted = victim[0]
                    if victim[1]:
                        writeback = victim[0]
                        stats.writebacks += 1
                if config.write_policy == "writethrough":
                    stats.writethroughs += 1
            else:
                # Write-noallocate miss: the write goes around the cache.
                stats.writethroughs += 1
        else:
            stats.read_misses += 1
            victim = None
            if len(ways) >= config.assoc:
                victim = ways.pop(0)
            ways.append([line, False])
            filled = True
            if victim is not None:
                evicted = victim[0]
                if victim[1]:
                    writeback = victim[0]
                    stats.writebacks += 1
        if evicted is None:
            return _FILL if filled else _MISS
        return AccessResult(hit=False, filled=filled, writeback=writeback,
                            evicted=evicted)

    # Convenience alias for trace-level studies.
    access = commit_access

    def __repr__(self) -> str:
        cfg = self.config
        return (f"<Cache {self.name}: {cfg.size_bytes}B {cfg.assoc}-way "
                f"{cfg.line_size}B lines>")
