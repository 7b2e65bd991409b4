"""Set-associative write-back cache model with LRU replacement.

The model serves two distinct users:

* trace-level studies (paper Sections 3.1/3.2) call :meth:`Cache.access`,
  which applies the configured write-miss policy and returns what moved
  on and off chip; and
* the timing models, whose cache state may change only at commit, in
  program order, under DataScalar's cache-correspondence protocol
  (paper Section 4.1).  That makes every node's cache outcomes a pure
  function of the record stream, so :func:`canonical_outcomes` applies
  the canonical accesses (:meth:`Cache.commit_access`) once per record
  and stores their outcomes on it.  A memory system keeps only the set
  of lines its D-cache holds, for issue-time probes, and advances it at
  each commit with :func:`apply_outcome`, which first checks the set
  against the canonical outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ProtocolError, SimulationError
from ..isa.opcodes import OpClass
from ..params import CacheConfig

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)


@dataclass
class AccessResult:
    """Outcome of one cache access.

    ``filled`` is True when the access allocated a line; ``writeback``
    carries the line-aligned address of an evicted dirty line, or
    ``None``.
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
        #: Write misses that went around the cache (write-noallocate).
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

    # ------------------------------------------------------------------
    # Snapshots (correspondence checks, tests).
    # ------------------------------------------------------------------
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
    # Combined canonical access (commit order).
    # ------------------------------------------------------------------
    def commit_access(self, addr: int, is_write: bool) -> AccessResult:
        """Apply one access in commit order: write-back, with the
        configured write-miss policy.

        This is *the* canonical access the correspondence protocol keys
        off: identical call sequences leave identical cache states.

        One scan of the set serves residency, LRU refresh, and
        dirty-marking together.
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
                entry[1] = True
            else:
                stats.read_hits += 1
            return _HIT
        if is_write:
            stats.write_misses += 1
            if config.write_allocate:
                victim = None
                if len(ways) >= config.assoc:
                    victim = ways.pop(0)
                ways.append([line, True])
                filled = True
                if victim is not None:
                    evicted = victim[0]
                    if victim[1]:
                        writeback = victim[0]
                        stats.writebacks += 1
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


def canonical_outcomes(trace, icache: CacheConfig, dcache: CacheConfig):
    """Yield ``trace``'s records with their canonical cache outcomes set.

    Every node applies the same canonical accesses in program order, so
    one pass over the stream, on this stage's own two caches, computes
    them for all nodes.  A record starts a new instruction line when its
    line differs from the previous record's; that line goes through the
    I-cache, and the record's ``imiss_line`` is set when it misses.  A
    load's or store's ``dcache_result`` is its D-cache access.  The
    stage runs before :func:`repro.isa.fan_out`, and a memory system
    reads the outcomes from the record.
    """
    ifetch = Cache(icache, name="i").commit_access
    daccess = Cache(dcache, name="d").commit_access
    line_mask = ~(icache.line_size - 1)
    current = None
    for dyn in trace:
        line = dyn.pc & line_mask
        if line != current:
            current = line
            if not ifetch(line, False).hit:
                dyn.imiss_line = line
        op_class = dyn.op_class
        if op_class == _LOAD:
            dyn.dcache_result = daccess(dyn.addr, False)
        elif op_class == _STORE:
            dyn.dcache_result = daccess(dyn.addr, True)
        yield dyn


def apply_outcome(resident: set, line: int, result, now: int,
                  where: str) -> None:
    """Advance a memory system's set of resident D-cache lines by one
    committed access to ``line`` whose canonical outcome is ``result``.

    The set must agree with the outcome before the access (``line`` is
    resident exactly when the access hits), and a fill's victim must be
    resident.  Either disagreement means the issue-time view left
    correspondence and raises :class:`ProtocolError` naming ``where``,
    the cycle and the line; a record with no outcome (a stream that did
    not pass through :func:`canonical_outcomes`) raises
    :class:`SimulationError`.
    """
    if result is None:
        raise SimulationError(
            f"{where}: the memory record for line {line:#x} committed at "
            f"cycle {now} carries no canonical D-cache outcome — pass the "
            f"stream through repro.memory.canonical_outcomes")
    if (line in resident) != result.hit:
        state = "not resident" if result.hit else "resident"
        raise ProtocolError(
            f"{where}: line {line:#x} is {state} at cycle {now}, but its "
            f"canonical access {'hit' if result.hit else 'missed'} — the "
            f"issue-time cache view left correspondence")
    if result.filled:
        resident.add(line)
        evicted = result.evicted
        if evicted is not None:
            if evicted not in resident:
                raise ProtocolError(
                    f"{where}: line {line:#x} filled at cycle {now} evicts "
                    f"line {evicted:#x}, which is not resident — the "
                    f"issue-time cache view left correspondence")
            resident.remove(evicted)
