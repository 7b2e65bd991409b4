"""The perfect-data-cache baseline.

Figures 7 and 8 compare every system against "an identical processor with
a perfect data cache (single-cycle access to any operand)".  Instruction
fetch is likewise single-cycle.
"""

from __future__ import annotations

from ..core.system import drive
from ..cpu.interface import LoadHandle, MemoryInterface
from ..cpu.pipeline import Pipeline, PipelineStats
from ..isa.codegen import make_trace_source
from ..params import CPUConfig


class PerfectMemory(MemoryInterface):
    """Every access completes in ``hit_latency`` cycles, no state."""

    def __init__(self, hit_latency: int = 1):
        self.hit_latency = hit_latency
        self.loads = 0
        self.stores = 0

    def load_issue(self, now: int, addr: int, size: int) -> LoadHandle:
        handle = LoadHandle(addr, size, now)
        handle.issue_hit = True
        handle.complete(now + self.hit_latency)
        self.loads += 1
        return handle

    def commit_mem(self, now, addr, size, is_store, handle) -> None:
        if is_store:
            self.stores += 1

    def ifetch_line(self, now: int, line_addr: int) -> int:
        return now

    def drain(self, now: int) -> bool:
        return True


class PerfectSystem:
    """A single core in front of a perfect memory."""

    def __init__(self, cpu_config: CPUConfig = None):
        self.cpu_config = cpu_config or CPUConfig()
        self.memory = PerfectMemory()

    def run(self, program, max_cycles: int = 200_000_000,
            limit=None) -> PipelineStats:
        """Simulate ``program`` to completion; returns pipeline stats."""
        from ..obs import spans

        pipeline = Pipeline(self.cpu_config, self.memory,
                            make_trace_source(program, limit=limit))
        with spans.span("timing-loop"):
            drive([pipeline], max_cycles, what="perfect")
        return pipeline.stats
