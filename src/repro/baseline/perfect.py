"""The perfect-data-cache baseline.

Figures 7 and 8 compare every system against "an identical processor with
a perfect data cache (single-cycle access to any operand)".  Instruction
fetch is likewise single-cycle: :meth:`PerfectMemory.ifetch_miss`
returns the cycle it is asked at, so a record naming an instruction
miss (a stream a sweep shares with cached systems, whose canonical
outcomes it carries) never stalls fetch, and no outcome is read.  A run
of its own reads a stream without outcomes.
"""

from __future__ import annotations

from ..core.system import drive
from ..cpu.interface import LoadHandle, MemoryInterface
from ..cpu.pipeline import Pipeline, PipelineStats
from ..isa import make_trace_source
from ..params import CPUConfig


class PerfectMemory(MemoryInterface):
    """Every access completes in ``hit_latency`` cycles, no state."""

    def __init__(self, hit_latency: int = 1):
        self.hit_latency = hit_latency

    def load_issue(self, now: int, addr: int, size: int) -> LoadHandle:
        handle = LoadHandle(addr, size, now)
        handle.issue_hit = True
        handle.complete(now + self.hit_latency)
        return handle

    def commit_mem(self, now, dyn, handle) -> None:
        """Nothing to commit: a perfect memory keeps no state."""

    def ifetch_miss(self, now: int, line: int) -> int:
        return now


class PerfectSystem:
    """A single core in front of a perfect memory."""

    def __init__(self, cpu_config: CPUConfig | None = None):
        self.cpu_config = cpu_config or CPUConfig()
        self.memory = PerfectMemory()

    def run(self, program, max_cycles: int = 200_000_000,
            limit=None, records=None) -> PipelineStats:
        """Simulate ``program`` to completion; returns pipeline stats.
        ``records``, when given, is the record stream already
        materialized, with or without canonical outcomes."""
        from ..obs import spans

        if records is None:
            records = make_trace_source(program, limit=limit)
        pipeline = Pipeline(self.cpu_config, self.memory, records)
        with spans.span("timing-loop"):
            drive([pipeline], max_cycles, what="perfect")
        return pipeline.stats
