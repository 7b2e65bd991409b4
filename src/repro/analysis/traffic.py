"""Off-chip traffic accounting under ESP (paper Section 3.1, Table 1).

"ESP reduces traffic ... by eliminating both request traffic and write
traffic from the global interconnect."  We filter a program's data
references through the paper's measurement cache (64KB, two-way,
write-allocate, write-back L1) and compare:

* conventional: every miss costs a request (address/tag) plus a response
  (line + tag); every write-back costs a line + tag;
* ESP: every miss costs exactly one broadcast (line + tag) — no requests,
  no write-backs.

Transactions count a request/response pair as two (so the transaction
reduction is always at least 50%).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.interpreter import Interpreter
from ..isa.trace import WRITE
from ..memory.cache import Cache
from ..params import CacheConfig

#: Default measurement cache: Table 1's configuration.
TABLE1_CACHE = CacheConfig(
    size_bytes=64 * 1024,
    assoc=2,
    line_size=32,
    write_allocate=True,
)


@dataclass
class TrafficReport:
    """Byte and transaction counts for one benchmark run."""

    misses: int
    writebacks: int
    accesses: int
    line_size: int
    tag_bytes: int = 8

    # ------------------------------------------------------------------
    # Conventional (request/response) accounting.
    # ------------------------------------------------------------------
    @property
    def conventional_bytes(self) -> int:
        request = self.misses * self.tag_bytes
        response = self.misses * (self.line_size + self.tag_bytes)
        writeback = self.writebacks * (self.line_size + self.tag_bytes)
        return request + response + writeback

    @property
    def conventional_transactions(self) -> int:
        return 2 * self.misses + self.writebacks

    # ------------------------------------------------------------------
    # ESP accounting: only data broadcasts remain.
    # ------------------------------------------------------------------
    @property
    def esp_bytes(self) -> int:
        return self.misses * (self.line_size + self.tag_bytes)

    @property
    def esp_transactions(self) -> int:
        return self.misses

    # ------------------------------------------------------------------
    # Table 1's two rows.
    # ------------------------------------------------------------------
    @property
    def bytes_eliminated(self) -> float:
        total = self.conventional_bytes
        if not total:
            return 0.0
        return 1.0 - self.esp_bytes / total

    @property
    def transactions_eliminated(self) -> float:
        total = self.conventional_transactions
        if not total:
            return 0.0
        return 1.0 - self.esp_transactions / total


def measure_esp_traffic(program, cache_config: CacheConfig = TABLE1_CACHE,
                        limit=None, tag_bytes: int = 8) -> TrafficReport:
    """Run ``program`` through the measurement cache and account traffic.

    Matches the paper's methodology: an execution-driven run filtered by
    a level-one data cache (instruction fetches are not measured);
    requests and write-backs are the traffic ESP removes.  The data
    references come from the reference interpreter's
    :meth:`~repro.isa.interpreter.Interpreter.mem_refs`, as for Table 2
    and the replication profile: generated code serves only the timing
    runs' record stream.
    """
    cache = Cache(cache_config, name="table1")
    misses = 0
    writebacks = 0
    accesses = 0
    for ref in Interpreter(program).mem_refs(limit=limit,
                                             include_ifetch=False):
        accesses += 1
        result = cache.commit_access(ref.addr, is_write=(ref.kind == WRITE))
        if not result.hit and (result.filled or ref.kind != WRITE):
            # A fill (read or write-allocate) moves a line on-chip.
            misses += 1
        elif not result.hit and not result.filled:
            # Write-noallocate miss: the word itself goes off-chip; count
            # it as a (word-sized) write-back for the conventional system.
            writebacks += 1
        if result.writeback is not None:
            writebacks += 1
    return TrafficReport(
        misses=misses,
        writebacks=writebacks,
        accesses=accesses,
        line_size=cache_config.line_size,
        tag_bytes=tag_bytes,
    )
