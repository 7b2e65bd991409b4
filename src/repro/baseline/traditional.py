"""The traditional comparison system of Figure 6(a).

One processor chip holding ``1/N`` of main memory on-chip; the remaining
``(N-1)/N`` lives in off-chip memory reached by request/response
transactions over the same global bus a DataScalar system would use for
broadcasts.  For fairness the paper gives this system the same buses,
the same two-cycle network-interface penalty, and commit-time cache
updates; we therefore reuse the DCUB machinery to stage in-flight lines,
and, like a DataScalar node, read the canonical cache outcomes from the
records (:func:`repro.memory.canonical_outcomes`) and keep only the set
of resident D-cache lines.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dcub import DCUB
from ..core.node import _PrimaryHandle
from ..core.system import drive
from ..cpu.interface import LoadHandle, MemoryInterface
from ..cpu.pipeline import Pipeline, PipelineStats
from ..interconnect.medium import Bus, LatencyQueue
from ..isa import Interpreter
from ..isa.opcodes import OpClass
from ..memory.cache import apply_outcome, canonical_outcomes
from ..memory.layout import traditional_page_table
from ..memory.mainmem import BankedMemory
from ..params import TraditionalConfig

_STORE = int(OpClass.STORE)


class TraditionalMemory(MemoryInterface):
    """Request/response memory hierarchy behind a single core."""

    def __init__(self, config: TraditionalConfig, page_table, bus: Bus):
        self.config = config
        self.page_table = page_table
        self.bus = bus
        node = config.node
        #: Line addresses the D-cache holds (the issue-time view),
        #: advanced at each memory commit by ``apply_outcome``.
        self.resident: set[int] = set()
        self._line_mask = ~(node.dcache.line_size - 1)
        self.onchip_mem = BankedMemory(
            node.memory.onchip_latency,
            num_banks=node.memory.num_banks,
            interleave_bytes=node.dcache.line_size,
            name="onchip",
        )
        self.offchip_mem = BankedMemory(
            node.memory.offchip_latency,
            num_banks=node.memory.num_banks,
            interleave_bytes=node.dcache.line_size,
            name="offchip",
        )
        self.ni_queue = LatencyQueue(config.bus.interface_latency)
        self.dcub = DCUB(name="dcub-trad")
        self.requests = 0
        self.onchip_fills = 0
        self.writethroughs_offchip = 0
        self.writebacks_offchip = 0

    def _is_onchip(self, addr: int) -> bool:
        return self.page_table.is_local(addr, 0)

    # ------------------------------------------------------------------
    # Issue side.
    # ------------------------------------------------------------------
    def load_issue(self, now: int, addr: int, size: int) -> LoadHandle:
        line = addr & self._line_mask
        hit_latency = self.config.node.dcache.hit_latency
        if line in self.resident:
            handle = LoadHandle(addr, size, now)
            handle.issue_hit = True
            handle.complete(now + hit_latency)
            return handle
        entry = self.dcub.lookup(line)
        if entry is not None:
            handle = LoadHandle(addr, size, now)
            handle.issue_hit = False
            handle.dcub_line = line
            self.dcub.merge(entry, now, handle)
            return handle
        entry = self.dcub.allocate(line, now)
        handle = _PrimaryHandle(addr, size, now, entry)
        handle.issue_hit = False
        handle.dcub_line = line
        if self._is_onchip(addr):
            self.onchip_fills += 1
            handle.complete(self.onchip_mem.access(now + hit_latency, line))
        else:
            handle.complete(self._fetch_offchip(now + hit_latency, line))
        return handle

    def _fetch_offchip(self, now: int, line: int) -> int:
        """Request across the bus, access off-chip memory, response back."""
        self.requests += 1
        queued = self.ni_queue.enqueue(now)
        _, request_done = self.bus.transfer(queued, 0)  # address only
        data_ready = self.offchip_mem.access(request_done, line)
        _, response_done = self.bus.transfer(
            data_ready, self.config.node.dcache.line_size)
        return response_done

    # ------------------------------------------------------------------
    # Commit side.
    # ------------------------------------------------------------------
    def commit_mem(self, now: int, dyn, handle) -> None:
        addr = dyn.addr
        line = addr & self._line_mask
        result = dyn.dcache_result
        apply_outcome(self.resident, line, result, now, "traditional")
        is_store = dyn.op_class == _STORE
        if result.writeback is not None:
            self._complete_writeback(now, result.writeback)
        if handle is not None and handle.dcub_line is not None:
            self.dcub.release(handle.dcub_line)
        if is_store and not result.hit and not result.filled:
            # Write-noallocate miss: the word itself goes to memory.
            self._write_through(now, addr, dyn.size)
        if is_store and result.filled and not self._is_onchip(addr):
            # Write-allocate fetched the line from off-chip at commit.
            self._fetch_offchip(now, line)

    def _write_through(self, now: int, addr: int, size: int) -> None:
        if self._is_onchip(addr):
            self.onchip_mem.access(now, addr)
            return
        self.writethroughs_offchip += 1
        self.bus.transfer(self.ni_queue.enqueue(now), size)

    def _complete_writeback(self, now: int, line: int) -> None:
        if self._is_onchip(line):
            self.onchip_mem.access(now, line)
            return
        self.writebacks_offchip += 1
        self.bus.transfer(self.ni_queue.enqueue(now),
                          self.config.node.dcache.line_size)

    # ------------------------------------------------------------------
    # Instruction fetch.
    # ------------------------------------------------------------------
    def ifetch_miss(self, now: int, line: int) -> int:
        if self._is_onchip(line):
            return self.onchip_mem.access(now, line)
        return self._fetch_offchip(now, line)

    def validate_final_state(self) -> None:
        self.dcub.assert_drained()


@dataclass
class TraditionalResult:
    """Run outcome for the traditional baseline."""

    cycles: int
    instructions: int
    pipeline: PipelineStats
    requests: int
    writebacks_offchip: int
    writethroughs_offchip: int
    bus_transactions: int
    bus_payload_bytes: int
    bus_utilization: float

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class TraditionalSystem:
    """Single core, 1/N memory on-chip, request/response off-chip."""

    def __init__(self, config: TraditionalConfig | None = None):
        self.config = config or TraditionalConfig()

    def run(self, program, replicated_pages=frozenset(), limit=None,
            records=None) -> TraditionalResult:
        """Simulate to completion.  ``records``, when given, is the
        record stream already materialized, with this config's canonical
        cache outcomes (see :meth:`DataScalarSystem.run
        <repro.core.system.DataScalarSystem.run>`)."""
        from ..obs import spans

        config = self.config
        trace = records
        if trace is None:
            trace = canonical_outcomes(
                Interpreter(program).trace(limit=limit),
                config.node.icache, config.node.dcache)
        with spans.span("layout"):
            page_table = traditional_page_table(
                program,
                denom=config.onchip_fraction_denom,
                page_size=config.node.memory.page_size,
                distribution_block_pages=config.distribution_block_pages,
                replicated_pages=replicated_pages,
            )
        with spans.span("setup"):
            memory = TraditionalMemory(config, page_table, Bus(config.bus))
            pipeline = Pipeline(config.node.cpu, memory, trace)
        with spans.span("timing-loop"):
            cycle = drive([pipeline], config.max_cycles, what="traditional")
        memory.validate_final_state()
        bus = memory.bus
        return TraditionalResult(
            cycles=cycle,
            instructions=pipeline.stats.committed,
            pipeline=pipeline.stats,
            requests=memory.requests,
            writebacks_offchip=memory.writebacks_offchip,
            writethroughs_offchip=memory.writethroughs_offchip,
            bus_transactions=bus.transactions,
            bus_payload_bytes=bus.payload_bytes,
            bus_utilization=bus.utilization(cycle),
        )
