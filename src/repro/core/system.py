"""The multi-node DataScalar timing simulator.

Mirrors the paper's simulation platform: a multi-context simulator that
"switches contexts after executing each cycle (i.e., it simulates cycle n
for all contexts before simulating cycle n+1 for any context)".  All
nodes fetch, execute, and commit the identical dynamic stream (SPSD) at
their own pace — asynchronous ESP; one shared functional front end
(:meth:`repro.isa.Interpreter.trace`, whose records name their
producers and a load's forwarding store) feeds every node through
:mod:`repro.isa.fanout`, and each node's provably idle cycle ranges
are skipped (see :func:`drive`, the one cycle scheduler every system
runs through) without altering any reported cycle count or statistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cpu.pipeline import Pipeline, PipelineStats
from ..errors import ProtocolError, SimulationError
from ..interconnect.medium import make_medium
from ..isa import Interpreter
from ..isa.fanout import fan_out
from ..memory.cache import canonical_outcomes
from ..memory.layout import LayoutSpec, build_page_table
from ..obs import spans
from ..obs.events import EventKind
from ..params import SystemConfig


@dataclass
class NodeResult:
    """Everything one node reports after a run."""

    node_id: int
    pipeline: PipelineStats
    broadcasts_sent: int
    late_broadcasts: int
    bshr_waits: int
    bshr_found: int
    bshr_squashes: int
    bshr_arrivals: int
    false_hits: int
    false_misses: int
    dcache_miss_rate: float
    remote_loads: int
    local_loads: int
    dropped_stores: int


@dataclass
class DataScalarResult:
    """Run-level outcome: IPC plus the Table 3 statistics."""

    cycles: int
    instructions: int
    nodes: "list[NodeResult]"
    bus_transactions: int
    bus_payload_bytes: int
    bus_utilization: float
    layout_summary: object = None
    extra: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    # ------------------------------------------------------------------
    # Table 3 aggregates (arithmetic mean over nodes, as in the paper).
    # ------------------------------------------------------------------
    @property
    def late_broadcast_fraction(self) -> float:
        """Fraction of broadcasts issued late (at commit) — column one."""
        fractions = [
            node.late_broadcasts / node.broadcasts_sent
            for node in self.nodes if node.broadcasts_sent
        ]
        return sum(fractions) / len(fractions) if fractions else 0.0

    @property
    def bshr_squash_fraction(self) -> float:
        """BSHR entries squashed, out of BSHR accesses — column two."""
        fractions = []
        for node in self.nodes:
            accesses = node.bshr_waits + node.bshr_found + node.bshr_squashes
            if accesses:
                fractions.append(node.bshr_squashes / accesses)
        return sum(fractions) / len(fractions) if fractions else 0.0

    @property
    def found_in_bshr_fraction(self) -> float:
        """Remote accesses that found data waiting in the BSHR — column
        three (evidence of datathreading)."""
        fractions = []
        for node in self.nodes:
            remote = node.bshr_waits + node.bshr_found
            if remote:
                fractions.append(node.bshr_found / remote)
        return sum(fractions) / len(fractions) if fractions else 0.0


class DataScalarSystem:
    """N IRAM nodes on one global broadcast bus (Figure 6(b))."""

    def __init__(self, config: SystemConfig | None = None):
        self.config = config or SystemConfig()

    def _make_medium(self):
        """Build the broadcast transport, wrapped for fault injection
        when ``config.faults`` is set (hook for tests that substitute a
        deliberately broken medium)."""
        config = self.config
        medium = make_medium(config.interconnect, config.bus,
                             config.num_nodes)
        if config.faults is None:
            return medium
        from ..faults import FaultyMedium

        return FaultyMedium(medium, config.faults, config.num_nodes,
                            config.bus)

    def _make_traces(self, program, limit) -> list:
        """One record stream per node: SPSD nodes consume the identical
        stream, so one :meth:`~repro.isa.Interpreter.trace`, with its
        canonical cache outcomes computed once
        (:func:`~repro.memory.canonical_outcomes`), is fanned out to all
        of them (O(I) work instead of O(N·I)).  Tests override this
        method to substitute a per-node reference."""
        node = self.config.node
        return fan_out(
            canonical_outcomes(Interpreter(program).trace(limit=limit),
                               node.icache, node.dcache),
            self.config.num_nodes)

    def run(self, program, replicated_pages=frozenset(), limit=None,
            tracer=None, records=None) -> DataScalarResult:
        """Simulate ``program`` across all nodes to completion.

        ``replicated_pages`` are page numbers to replicate statically in
        addition to the text segment; ``limit`` bounds the dynamic
        instruction count per node (all nodes see the same prefix);
        ``tracer`` (a :class:`repro.obs.Tracer`) receives structured
        events from every subsystem — tracing is purely observational,
        so results are bit-identical with it on or off, and a traced run
        ticks and skips exactly the cycles of the untraced one.

        Every node consumes the same record stream (:meth:`_make_traces`)
        and must commit the same number of instructions.  ``records``,
        when given, is that stream already materialized: ``program``'s
        records up to ``limit``, carrying the canonical
        outcomes of this config's caches (how a sweep's points share
        one stream, see :mod:`repro.runner.executors`).
        """
        from .node import DataScalarNode  # local import to avoid cycles

        config = self.config
        spec = LayoutSpec(
            num_nodes=config.num_nodes,
            page_size=config.node.memory.page_size,
            distribution_block_pages=config.distribution_block_pages,
            replicated_pages=frozenset(replicated_pages),
        )
        num = config.num_nodes
        nodes: "list[DataScalarNode]" = []
        # Per-pipeline wake cycles for :func:`drive`: the bound each
        # node's last tick returned.  A broadcast delivery is the one way
        # a peer creates work for an idle node, so the deliver hook
        # zeroes the target's wake to force a re-tick and a fresh bound.
        wake = [0] * num

        def deliver(src: int, line: int, arrivals) -> None:
            if tracer is not None:
                for node in nodes:
                    arrival = arrivals[node.node_id]
                    if arrival is not None:
                        tracer.emit(EventKind.BCAST_ARRIVE, arrival,
                                    node.node_id, src=src, line=line)
            for node in nodes:
                arrival = arrivals[node.node_id]
                if arrival is not None:
                    node.bshr.arrival(arrival, line)
                    wake[node.node_id] = 0

        with spans.span("layout"):
            page_table, layout_summary = build_page_table(program, spec)
        medium = self._make_medium()
        traces = (self._make_traces(program, limit) if records is None
                  else fan_out(records, num))
        pipelines = []
        with spans.span("setup"):
            for node_id in range(num):
                node = DataScalarNode(
                    node_id, config.node, page_table, medium, deliver,
                    num_peers=num - 1)
                nodes.append(node)
                pipelines.append(
                    Pipeline(config.node.cpu, node, traces[node_id]))
                if tracer is not None:
                    pipelines[-1].attach_tracer(tracer, node_id)
                    node.attach_tracer(tracer)
            if tracer is not None and hasattr(medium, "attach_tracer"):
                medium.attach_tracer(tracer)

        with spans.span("timing-loop"):
            cycles = drive(pipelines, config.max_cycles,
                           dense=not config.fast_forward, wake=wake)
        with spans.span("analysis"):
            return self._collect(cycles, pipelines, nodes, medium,
                                 page_table, layout_summary)

    def _collect(self, cycles, pipelines, nodes, medium, page_table,
                 layout_summary) -> DataScalarResult:
        committed = {p.stats.committed for p in pipelines}
        if len(committed) != 1:
            raise ProtocolError(
                f"nodes committed different instruction counts: {committed}"
            )
        for node in nodes:
            node.validate_final_state()
        node_results = []
        for pipeline, node in zip(pipelines, nodes):
            node_results.append(NodeResult(
                node_id=node.node_id,
                pipeline=pipeline.stats,
                broadcasts_sent=node.broadcaster.stats.sent,
                late_broadcasts=node.broadcaster.stats.late,
                bshr_waits=node.bshr.stats.waits,
                bshr_found=node.bshr.stats.found_in_bshr,
                bshr_squashes=node.bshr.stats.squashes,
                bshr_arrivals=node.bshr.stats.arrivals,
                false_hits=node.tracker.stats.false_hits,
                false_misses=node.tracker.stats.false_misses,
                dcache_miss_rate=(node.dcache_misses / node.dcache_accesses
                                  if node.dcache_accesses else 0.0),
                remote_loads=node.remote_loads,
                local_loads=node.local_loads,
                dropped_stores=node.dropped_stores,
            ))
        extra = {"unmapped_pages": page_table.unmapped_accesses}
        if hasattr(medium, "fault_stats"):
            # Fault-injected run: the medium's integrity ledger must
            # balance (every sequenced broadcast delivered, every
            # detected fault repaired) or the run is not trustworthy.
            medium.validate_final_state()
            extra["faults"] = medium.snapshot()
        return DataScalarResult(
            cycles=cycles,
            instructions=committed.pop(),
            nodes=node_results,
            bus_transactions=medium.transactions,
            bus_payload_bytes=medium.payload_bytes,
            bus_utilization=medium.utilization(cycles),
            layout_summary=layout_summary,
            extra=extra,
        )


def drive(pipelines, max_cycles: int, *, dense: bool = False, wake=None,
          what: str = "DataScalar") -> int:
    """Tick ``pipelines`` from cycle 0 until all are done; return the
    cycle count (one past the finishing tick).

    This is the one cycle scheduler: every system — N DataScalar nodes
    or a single-core baseline — runs through it.  Each pipeline carries
    its own wake cycle in ``wake``: the bound its last
    :meth:`Pipeline.tick` returned.  A pipeline is simply not ticked
    before it; the ticks skipped would do nothing but count stalls, and
    the next real tick counts them.  Nodes thus run at their own pace,
    as ESP lets them, while every cycle ``n`` is still finished for all
    nodes before any node starts ``n + 1``.

    The one way a peer creates work for an idle pipeline is a broadcast
    delivery, and deliveries are materialized eagerly (at broadcast
    time, with absolute arrival cycles): the owner of ``wake`` zeroes
    the target's entry, forcing a re-tick and a fresh bound.  A
    pipeline wedged waiting on a peer returns its deadlock-detector
    tick, so protocol hangs still surface as typed errors at the cycle
    dense ticking would raise them.

    ``dense`` sets every wake to ``cycle + 1`` instead, which ticks
    every pipeline every cycle: ``fast_forward=False``, the reference
    the equivalence suite compares skipping runs against.
    """
    num = len(pipelines)
    if wake is None:
        wake = [0] * num
    cycle = 0
    ticks = [pipeline.tick for pipeline in pipelines]
    running = sum(1 for pipeline in pipelines if not pipeline.done)
    while running:
        if cycle >= max_cycles:
            raise SimulationError(f"{what} run exceeded {max_cycles} cycles")
        nxt = cycle + 1
        for i in range(num):
            pipeline = pipelines[i]
            if pipeline.done or wake[i] > cycle:
                continue
            bound = ticks[i](cycle)
            if pipeline.done:
                running -= 1
            elif dense:
                wake[i] = nxt
            else:
                wake[i] = bound
        if not running:
            return nxt
        target = max_cycles
        for i in range(num):
            if pipelines[i].done:
                continue
            event = wake[i]
            if event <= nxt:
                target = nxt
                break
            if event < target:
                target = event
        cycle = target
    return cycle
