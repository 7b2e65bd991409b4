"""Hybrid SPSD/SPMD execution (paper Section 5.2).

"The DataScalar execution model is a memory system optimization, not a
substitute for parallel processing.  When coarse-grain parallelism exists
and is obtainable, the system should be run as a parallel processor
(since a majority of the needed hardware is already present)."

A hybrid schedule alternates:

* **serial phases** — one program run SPSD across all nodes (the full
  DataScalar machinery: ESP broadcasts, BSHRs, correspondence); and
* **parallel phases** — one program *per node*, each run privately
  against that node's local memory (SPMD), joined by a barrier that
  exchanges each node's boundary results over the broadcast bus.

The result quantifies the paper's claim that the same hardware covers
both regimes: parallel sections get near-linear scaling, serial sections
keep DataScalar's memory-system advantage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cpu.pipeline import Pipeline
from ..errors import ConfigError
from ..interconnect.bus import Bus
from ..interconnect.message import Message, MessageKind
from ..isa.interpreter import Interpreter
from ..memory.layout import traditional_page_table
from ..params import SystemConfig, TraditionalConfig
from .system import DataScalarSystem, drive


@dataclass
class SerialPhase:
    """One SPSD section: every node runs ``program`` redundantly."""

    program: object
    replicated_pages: frozenset = frozenset()


@dataclass
class ParallelPhase:
    """One SPMD section: node ``i`` runs ``programs[i]`` privately.

    ``boundary_bytes`` is what each node must publish at the closing
    barrier (partial sums, halo cells, ...), broadcast over the bus.
    """

    programs: list
    boundary_bytes: int = 64


@dataclass
class PhaseResult:
    """Timing of one phase."""

    kind: str
    cycles: int
    instructions: int
    #: Parallel phases: per-node cycle counts (imbalance diagnosis).
    node_cycles: "list[int]" = field(default_factory=list)


@dataclass
class HybridResult:
    """Outcome of a hybrid schedule."""

    phases: "list[PhaseResult]"
    barrier_cycles: int

    @property
    def total_cycles(self) -> int:
        return sum(p.cycles for p in self.phases) + self.barrier_cycles

    @property
    def total_instructions(self) -> int:
        return sum(p.instructions for p in self.phases)

    @property
    def parallel_fraction(self) -> float:
        parallel = sum(p.cycles for p in self.phases if p.kind == "spmd")
        total = self.total_cycles
        return parallel / total if total else 0.0


class HybridSystem:
    """Runs hybrid schedules on one DataScalar machine configuration."""

    def __init__(self, config: SystemConfig = None):
        self.config = config or SystemConfig()

    def run(self, phases, limit=None) -> HybridResult:
        """Execute ``phases`` in order; returns the combined timing."""
        if not phases:
            raise ConfigError("a hybrid schedule needs at least one phase")
        results = []
        barrier_cycles = 0
        for phase in phases:
            if isinstance(phase, SerialPhase):
                results.append(self._run_serial(phase, limit))
            elif isinstance(phase, ParallelPhase):
                result, barrier = self._run_parallel(phase, limit)
                results.append(result)
                barrier_cycles += barrier
            else:
                raise ConfigError(f"unknown phase type {type(phase).__name__}")
        return HybridResult(phases=results, barrier_cycles=barrier_cycles)

    # ------------------------------------------------------------------
    def _run_serial(self, phase: SerialPhase, limit) -> PhaseResult:
        result = DataScalarSystem(self.config).run(
            phase.program, replicated_pages=phase.replicated_pages,
            limit=limit)
        return PhaseResult(kind="spsd", cycles=result.cycles,
                           instructions=result.instructions)

    def _run_parallel(self, phase: ParallelPhase, limit):
        config = self.config
        if len(phase.programs) != config.num_nodes:
            raise ConfigError(
                f"parallel phase has {len(phase.programs)} programs for "
                f"{config.num_nodes} nodes"
            )
        node_cycles = []
        instructions = 0
        for program in phase.programs:
            cycles, committed = self._run_private(program, limit)
            node_cycles.append(cycles)
            instructions += committed
        # Barrier: each node broadcasts its boundary results.
        bus = Bus(config.bus)
        done = 0
        for node_id in range(config.num_nodes):
            message = Message(MessageKind.BROADCAST, src=node_id,
                              line_addr=0, payload_bytes=phase.boundary_bytes)
            _, done = bus.transfer(done, message)
        return (
            PhaseResult(kind="spmd", cycles=max(node_cycles),
                        instructions=instructions, node_cycles=node_cycles),
            done,
        )

    def _run_private(self, program, limit):
        """One node running privately: all pages local (SPMD mode keeps
        each node's partition in its own memory)."""
        from ..baseline.traditional import TraditionalMemory  # avoid cycle

        node = self.config.node
        trad_config = TraditionalConfig(
            node=node, bus=self.config.bus, onchip_fraction_denom=1,
            replicate_text=True,
        )
        page_table = traditional_page_table(
            program, denom=1, page_size=node.memory.page_size,
            replicate_text=True,
        )
        bus = Bus(self.config.bus)  # private; never used when all is local
        memory = TraditionalMemory(trad_config, page_table, bus)
        pipeline = Pipeline(node.cpu, memory,
                            Interpreter(program).trace(limit=limit),
                            icache_line=node.icache.line_size)
        cycle = drive([pipeline], self.config.max_cycles,
                      what="private phase")
        memory.validate_final_state()
        return cycle, pipeline.stats.committed
