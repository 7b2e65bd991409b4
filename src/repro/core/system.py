"""The multi-node DataScalar timing simulator.

Mirrors the paper's simulation platform: a multi-context simulator that
"switches contexts after executing each cycle (i.e., it simulates cycle n
for all contexts before simulating cycle n+1 for any context)".  All
nodes fetch, execute, and commit the identical dynamic stream (SPSD) at
their own pace — asynchronous ESP; one shared functional front end
feeds every node through :mod:`repro.isa.fanout`, and each node's
provably idle cycle ranges are skipped (see :func:`drive`, the one cycle
scheduler every system runs through) without altering any reported
cycle count or statistic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..cpu.pipeline import DEADLOCK_CYCLES, Pipeline, PipelineStats
from ..errors import ProtocolError, SimulationError
from ..interconnect.medium import make_medium
from ..isa.codegen import make_trace_source
from ..isa.fanout import fan_out
from ..memory.cache import canonical_outcomes
from ..memory.layout import LayoutSpec, build_page_table
from ..obs import spans
from ..obs.events import EventKind
from ..params import SystemConfig

_INF = float("inf")


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

    def __init__(self, config: SystemConfig = None):
        self.config = config or SystemConfig()

    def _make_medium(self):
        """Build the broadcast transport, wrapped for fault injection
        when ``config.faults`` is set (hook for tests that substitute a
        deliberately broken medium)."""
        config = self.config
        medium = make_medium(config.interconnect, config.bus,
                             config.num_nodes)
        if config.faults is not None:
            from ..faults import FaultyMedium

            medium = FaultyMedium(medium, config.faults, config.num_nodes,
                                  config.bus)
        return medium

    def _make_traces(self, program, limit) -> list:
        """One annotated record stream per node: SPSD nodes consume the
        identical stream, so one :func:`~repro.isa.codegen.make_trace_source`,
        with its canonical cache outcomes computed once
        (:func:`~repro.memory.canonical_outcomes`), is fanned out to all
        of them (O(I) work instead of O(N·I)).  Tests override this
        method to substitute a per-node reference."""
        node = self.config.node
        return fan_out(
            canonical_outcomes(make_trace_source(program, limit=limit),
                               node.icache, node.dcache),
            self.config.num_nodes)

    def run(self, program, replicated_pages=frozenset(), limit=None,
            stack_bytes: int = 64 * 1024,
            observer=None, tracer=None) -> DataScalarResult:
        """Simulate ``program`` across all nodes to completion.

        ``replicated_pages`` are page numbers to replicate statically in
        addition to the text segment; ``limit`` bounds the dynamic
        instruction count per node (all nodes see the same prefix);
        ``observer(cycle, pipelines, nodes, medium)`` is called every
        simulated cycle (see :class:`repro.analysis.timeline`);
        ``tracer`` (a :class:`repro.obs.Tracer`) receives structured
        events from every subsystem — tracing is purely observational,
        so results are bit-identical with it on or off, and a traced run
        ticks and skips exactly the cycles of the untraced one.

        Every node consumes the same record stream (:meth:`_make_traces`)
        and must commit the same number of instructions.
        """
        from .node import DataScalarNode  # local import to avoid cycles

        config = self.config
        spec = LayoutSpec(
            num_nodes=config.num_nodes,
            page_size=config.node.memory.page_size,
            distribution_block_pages=config.distribution_block_pages,
            replicate_text=config.replicate_text,
            replicated_pages=frozenset(replicated_pages),
            stack_bytes=stack_bytes,
        )
        num = config.num_nodes
        nodes: "list[DataScalarNode]" = []
        # Per-pipeline wake cycles for :func:`drive`.  A broadcast
        # delivery is the one way a peer creates work for an idle node,
        # so the deliver hook zeroes the target's wake to force a re-tick
        # and a fresh bound.
        wake = [0] * num

        def deliver(src: int, line: int, arrivals) -> None:
            for node in nodes:
                arrival = arrivals[node.node_id]
                if arrival is not None:
                    node.bshr.arrival(arrival, line)
                    wake[node.node_id] = 0

        if tracer is not None:
            plain_deliver = deliver

            def deliver(src: int, line: int, arrivals) -> None:
                for node in nodes:
                    arrival = arrivals[node.node_id]
                    if arrival is not None:
                        tracer.emit(EventKind.BCAST_ARRIVE, arrival,
                                    node.node_id, src=src, line=line)
                plain_deliver(src, line, arrivals)

        with spans.span("layout"):
            page_table, layout_summary = build_page_table(program, spec)
        medium = self._make_medium()
        # Trace sources are built *outside* the setup span so the
        # codegen-compile phase (charged inside make_trace_source) and
        # the timing-loop/frontend accumulator stay direct children of
        # the point span rather than nesting under setup.
        traces = self._make_traces(program, limit)
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

        # Fault mode adds the BSHR wait tripwire before every simulated
        # cycle and folds the medium's recovery timers into the skip
        # bound.  Skipped and ticked idle cycles are observationally
        # identical, so neither changes a reported number.
        external = before_tick = None
        if config.faults is not None:
            for node in nodes:
                node.bshr.arm_timeout(config.faults.wait_deadline)
            external = self._fault_event_fn(nodes, medium)
            before_tick = self._timeout_check(nodes)
        after_round = None
        if observer is not None:
            def after_round(cycle):
                observer(cycle, pipelines, nodes, medium)

        with spans.span("timing-loop"):
            # An observer wants to see every cycle: dense ticking.
            cycles = drive(
                pipelines, config.max_cycles,
                dense=not config.fast_forward or observer is not None,
                wake=wake, external=external, before_tick=before_tick,
                after_round=after_round)
        with spans.span("analysis"):
            return self._collect(cycles, pipelines, nodes, medium,
                                 page_table, layout_summary)

    @staticmethod
    def _fault_event_fn(nodes, medium):
        """Self-generated event bound for the fault layer: the earliest
        outstanding recovery delivery or armed BSHR wait deadline.  The
        driver folds this in so a jump can never cross a scheduled
        recovery action or overshoot the wait tripwire."""
        medium_next = getattr(medium, "next_event", None)

        def fault_event(now):
            bound = None
            if medium_next is not None:
                bound = medium_next(now)
            for node in nodes:
                deadline = node.bshr.next_deadline()
                if deadline is not None and (bound is None
                                             or deadline < bound):
                    bound = deadline
            return bound

        return fault_event

    @staticmethod
    def _timeout_check(nodes):
        """The fault-mode pre-tick hook: every node's BSHR wait
        tripwire, its wall time charged to a ``timing-loop/
        fault-recovery`` accumulator while a span recorder is active."""
        bshrs = [node.bshr for node in nodes]

        def check(cycle):
            for bshr in bshrs:
                bshr.check_timeouts(cycle)

        recorder = spans.active()
        if recorder is None:
            return check
        accumulator = recorder.accumulator("fault-recovery",
                                           under="timing-loop")

        def timed_check(cycle):
            start = time.perf_counter()
            check(cycle)
            accumulator.add(time.perf_counter() - start)

        return timed_check

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
          external=None, before_tick=None, after_round=None,
          what: str = "DataScalar") -> int:
    """Tick ``pipelines`` from cycle 0 until all are done; return the
    cycle count (one past the finishing tick).

    This is the one cycle scheduler: every system — N DataScalar nodes
    or a single-core baseline — runs through it.  Each pipeline carries
    its own wake cycle in ``wake``: the :meth:`Pipeline.next_event`
    bound computed right after its last tick.  A pipeline is simply not
    ticked before it.  Ticks before a pipeline's own bound do nothing
    but stall bookkeeping, and that bookkeeping is replayed exactly by
    one :meth:`Pipeline.note_skipped` call just before the next real
    tick (``last_tick`` holds each pipeline's first cycle not yet
    accounted; its fetch state is frozen in between, so deferred replay
    classifies every skipped cycle identically).  Nodes thus run at
    their own pace, as ESP lets them, while every cycle ``n`` is still
    finished for all nodes before any node starts ``n + 1``.

    The one way a peer creates work for an idle pipeline is a broadcast
    delivery, and deliveries are materialized eagerly (at broadcast
    time, with absolute arrival cycles): the owner of ``wake`` zeroes
    the target's entry, forcing a re-tick and a fresh bound.  A pipeline
    with no self-generated event at all (``next_event`` = inf — wedged
    waiting on a peer) is woken at its deadlock-detection tick once no
    peer has an earlier event, so protocol hangs still surface as typed
    errors at the cycle dense ticking would raise them.

    ``dense`` sets every wake to ``cycle + 1`` instead, which ticks
    every pipeline every cycle (observers, ``fast_forward=False``).
    ``external(cycle)`` is one folded outside bound (``None`` = no
    event): the driver never jumps past it.  ``before_tick(cycle)`` runs
    at each simulated cycle before any tick; ``after_round(cycle)``
    after every tick of it (the observer hook).
    """
    num = len(pipelines)
    if wake is None:
        wake = [0] * num
    last_tick = [0] * num
    cycle = 0
    ticks = [pipeline.tick for pipeline in pipelines]
    running = sum(1 for pipeline in pipelines if not pipeline.done)
    while running:
        if cycle >= max_cycles:
            raise SimulationError(f"{what} run exceeded {max_cycles} cycles")
        if before_tick is not None:
            before_tick(cycle)
        nxt = cycle + 1
        for i in range(num):
            pipeline = pipelines[i]
            if pipeline.done or wake[i] > cycle:
                continue
            start = last_tick[i]
            if start < cycle:
                pipeline.note_skipped(start, cycle)
            ticks[i](cycle)
            last_tick[i] = nxt
            if pipeline.done:
                running -= 1
            elif dense:
                wake[i] = nxt
            else:
                wake[i] = pipeline.next_event(cycle)
        if after_round is not None:
            after_round(cycle)
        if not running:
            return nxt
        target = _INF
        for i in range(num):
            if pipelines[i].done:
                continue
            event = wake[i]
            if event <= nxt:
                target = nxt
                break
            if event < target:
                target = event
        if target == _INF:
            # No pipeline has a self-generated event: jump straight to
            # the earliest deadlock-detector tick and force the stuck
            # pipelines awake there so the error surfaces.
            target = min(p._last_commit_cycle + DEADLOCK_CYCLES + 1
                         for p in pipelines if not p.done)
            for i in range(num):
                if not pipelines[i].done and wake[i] > target:
                    wake[i] = target
        if external is not None and target > nxt:
            event = external(cycle)
            if event is not None and event < target:
                target = event
        if target > max_cycles:
            target = max_cycles
        if target < nxt:
            target = nxt
        cycle = int(target)
    return cycle
