"""A traditional system that spends its on-chip memory as an L2 cache.

Paper Section 4.3: "the traditional system would certainly benefit if
all of the on-chip memory was devoted to a large second- or third-level
cache, [but] measuring such a system against our simulated DataScalar
implementation would be an unfair comparison" — they consider the IRAM a
commodity part whose on-chip memory is main memory.  This module builds
the dismissed alternative so the trade-off can be *measured*: all main
memory lives off-chip and the chip's capacity becomes a unified L2.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cpu.interface import LoadHandle, MemoryInterface
from ..cpu.pipeline import Pipeline, PipelineStats
from ..core.dcub import DCUB
from ..core.node import _PrimaryHandle
from ..core.system import drive
from ..interconnect.bus import Bus
from ..interconnect.message import Message, MessageKind
from ..interconnect.queueing import LatencyQueue
from ..isa.interpreter import Interpreter
from ..memory.cache import Cache
from ..memory.mainmem import BankedMemory
from ..params import CacheConfig, TraditionalConfig


class L2Memory(MemoryInterface):
    """L1 (commit-updated) over a unified on-chip L2 over off-chip DRAM."""

    def __init__(self, config: TraditionalConfig, l2_config: CacheConfig,
                 bus: Bus):
        self.config = config
        self.bus = bus
        node = config.node
        self.icache = Cache(node.icache, name="i")
        self.dcache = Cache(node.dcache, name="d")
        self.l2 = Cache(l2_config, name="l2")
        self.l2_latency = node.memory.onchip_latency
        self.offchip_mem = BankedMemory(
            node.memory.offchip_latency,
            num_banks=node.memory.num_banks,
            interleave_bytes=node.dcache.line_size,
            name="offchip",
        )
        self.ni_queue = LatencyQueue(config.bus.interface_latency, name="ni")
        self.dcub = DCUB(name="dcub-l2")
        self.l2_hits = 0
        self.l2_misses = 0
        self.requests = 0

    # ------------------------------------------------------------------
    def _fill_from_l2(self, now: int, line: int) -> int:
        """Service an L1 miss: L2 hit or off-chip round trip.  The L2 is
        private to one core, so it updates immediately."""
        result = self.l2.commit_access(line, is_write=False)
        if result.writeback is not None:
            self._writeback_offchip(now, result.writeback)
        if result.hit:
            self.l2_hits += 1
            return now + self.l2_latency
        self.l2_misses += 1
        self.requests += 1
        queued = self.ni_queue.enqueue(now + self.l2_latency)
        request = Message(MessageKind.REQUEST, src=0, line_addr=line,
                          payload_bytes=0)
        _, request_done = self.bus.transfer(queued, request)
        data_ready = self.offchip_mem.access(request_done, line)
        response = Message(MessageKind.RESPONSE, src=1, line_addr=line,
                           payload_bytes=self.config.node.dcache.line_size)
        _, response_done = self.bus.transfer(data_ready, response)
        return response_done

    def _writeback_offchip(self, now: int, line: int) -> None:
        queued = self.ni_queue.enqueue(now)
        message = Message(MessageKind.WRITEBACK, src=0, line_addr=line,
                          payload_bytes=self.config.node.dcache.line_size)
        self.bus.transfer(queued, message)

    # ------------------------------------------------------------------
    def load_issue(self, now: int, addr: int, size: int) -> LoadHandle:
        line = self.dcache.line_addr(addr)
        hit_latency = self.config.node.dcache.hit_latency
        if self.dcache.lookup(addr):
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
        handle.complete(self._fill_from_l2(now + hit_latency, line))
        return handle

    def commit_mem(self, now: int, addr: int, size: int, is_store: bool,
                   handle) -> None:
        result = self.dcache.commit_access(addr, is_write=is_store)
        if result.writeback is not None:
            # L1 dirty eviction lands in the L2.
            l2_result = self.l2.commit_access(result.writeback,
                                              is_write=True)
            if l2_result.writeback is not None:
                self._writeback_offchip(now, l2_result.writeback)
        if handle is not None and handle.dcub_line is not None:
            self.dcub.release(handle.dcub_line)
        if is_store and not result.hit and not result.filled:
            # Write-noallocate L1 miss: the word goes to the L2.
            l2_result = self.l2.commit_access(self.dcache.line_addr(addr),
                                              is_write=True)
            if l2_result.writeback is not None:
                self._writeback_offchip(now, l2_result.writeback)

    def ifetch_line(self, now: int, line_addr: int) -> int:
        result = self.icache.commit_access(line_addr, is_write=False)
        if result.hit:
            return now
        return self._fill_from_l2(now, line_addr)

    def drain(self, now: int) -> bool:
        return True

    def validate_final_state(self) -> None:
        self.dcub.assert_drained()


@dataclass
class L2Result:
    """Run outcome for the L2-organized traditional system."""

    cycles: int
    instructions: int
    pipeline: PipelineStats
    l2_hits: int
    l2_misses: int
    requests: int
    bus_transactions: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l2_hit_rate(self) -> float:
        total = self.l2_hits + self.l2_misses
        return self.l2_hits / total if total else 0.0


class L2System:
    """One core; all memory off-chip; on-chip capacity used as L2."""

    def __init__(self, config: TraditionalConfig = None,
                 l2_config: CacheConfig = None):
        self.config = config or TraditionalConfig()
        self.l2_config = l2_config or CacheConfig(
            size_bytes=64 * 1024, assoc=4, line_size=32,
            write_policy="writeback", write_allocate=True,
        )

    def run(self, program, limit=None) -> L2Result:
        bus = Bus(self.config.bus)
        memory = L2Memory(self.config, self.l2_config, bus)
        trace = Interpreter(program).trace(limit=limit)
        pipeline = Pipeline(self.config.node.cpu, memory, trace,
                            icache_line=self.config.node.icache.line_size)
        cycle = drive([pipeline], self.config.max_cycles, what="L2 system")
        memory.validate_final_state()
        return L2Result(
            cycles=cycle,
            instructions=pipeline.stats.committed,
            pipeline=pipeline.stats,
            l2_hits=memory.l2_hits,
            l2_misses=memory.l2_misses,
            requests=memory.requests,
            bus_transactions=bus.stats.transactions,
        )
