"""Serializable full-simulator state: capture, materialize, advance.

The timing simulator's state is an object graph of plain data — RUU
windows, LSQ entries, free lists, branch-predictor tables, cache tag
arrays, BSHR/DCUB queues, TLBs, the page table, interconnect timing
state, and the fault layer's pending retransmits.  The one thing that
cannot be serialized is *code position*: the functional front end is a
running generator (the predecoded interpreter or a program-specialized
stepper), and generators neither deep-copy nor pickle.

A :class:`Checkpoint` therefore splits a run into two parts:

* the **machine state** — deep-copied in *one* pass with a shared memo,
  so every cross-structure reference (a ``LoadHandle`` shared by a
  pipeline's pending-load list and a BSHR waiter queue, a ``DCUBEntry``
  named by several merged handles, a TLB's walker pointing at its
  node's memory banks) stays one object in the snapshot exactly as it
  is one object live; and
* the **front-end position** — how many dynamic records each node's
  trace view has consumed (:class:`repro.isa.fanout.CountingTrace`).
  Restore rebuilds the functional front end from the program — the
  same engine the original run chose — and fast-forwards it by that
  count, which also reconstructs the fan-out tee queues record for
  record (the view that produced the newest source record always has
  an empty pending queue, so per-view replay counts determine the
  whole tee state).

Edges that must *not* be followed into the snapshot — the live trace
iterators, the broadcast-delivery closure, tracers —
are cut by seeding the deepcopy memo: ``copy.deepcopy`` consults the
memo *before* type dispatch, so a pre-seeded ``id(obj) -> None`` entry
excises the edge (even for otherwise-uncopyable objects like
generators) without mutating the live simulator.  Restore rewires each
cut edge against the materialized clones.

Snapshots are fully picklable, which is what lets
:class:`repro.runner.sharded.ShardedRun` ship them through the
content-addressed result cache to pool workers.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from ..errors import SimulationError
from ..obs import spans

#: Stamp of the snapshot layout.  Folded into every checkpoint digest
#: (:func:`repro.runner.digest.checkpoint_digest`), so cached blobs can
#: never alias across format changes.  Bump when the ``state`` tree's
#: shape changes.
CHECKPOINT_VERSION = "1"


@dataclass
class Checkpoint:
    """One resumable position of a timing simulation.

    ``cycle`` is the next cycle to simulate (capture happens after
    every tick of cycle ``cycle - 1``); ``committed`` is the minimum
    per-node committed-instruction count at capture; ``consumed`` is
    the per-node count of dynamic records the front end has delivered
    (fetch buffer included).  ``state`` is the deep-copied machine
    state; its keys depend on ``kind`` (``"datascalar"``,
    ``"traditional"``, or ``"perfect"``).
    """

    kind: str
    cycle: int
    committed: int
    consumed: "list[int]"
    state: dict
    version: str = CHECKPOINT_VERSION
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Deterministic structural summaries (shard stitching verification).
    # ------------------------------------------------------------------
    def summary(self) -> tuple:
        """A deterministic tuple over every externally visible number in
        the snapshot — committed counts, stall counters, occupancies,
        interconnect and fault-layer state.  Two checkpoints of the same
        simulation position always summarize identically, regardless of
        which process produced them; :class:`~repro.runner.sharded.
        ShardedRun` compares a shard's end state against the cached next
        checkpoint through this."""
        state = self.state
        head = (self.kind, self.version, self.cycle, self.committed,
                tuple(self.consumed))
        if self.kind == "datascalar":
            pipelines = state["pipelines"]
            nodes = state["nodes"]
            medium = state["medium"]
            page_table = state["page_table"]
            return head + (
                tuple(_pipeline_summary(p) for p in pipelines),
                tuple(_node_summary(n) for n in nodes),
                medium.state_key(self.cycle),
                (page_table.unmapped_accesses, len(page_table._entries)),
                tuple(state["wake"]),
                tuple(state["last_tick"]),
            )
        if self.kind == "traditional":
            memory = state["memory"]
            return head + (
                _pipeline_summary(state["pipeline"]),
                (memory.requests, memory.onchip_fills,
                 memory.writethroughs_offchip, memory.writebacks_offchip,
                 memory.bus.stats.transactions,
                 memory.bus.stats.payload_bytes,
                 memory.dcub.occupancy()),
            )
        if self.kind == "perfect":
            memory = state["memory"]
            return head + (
                _pipeline_summary(state["pipeline"]),
                (memory.loads, memory.stores),
            )
        raise SimulationError(f"unknown checkpoint kind {self.kind!r}")

    def describe(self) -> dict:
        """Small human-readable digest for logs and the CLI."""
        return {
            "kind": self.kind,
            "cycle": self.cycle,
            "committed": self.committed,
            "consumed": list(self.consumed),
            "version": self.version,
            **self.meta,
        }


def _pipeline_summary(pipeline) -> tuple:
    stats = pipeline.stats
    return (
        stats.committed, stats.loads, stats.stores, stats.cycles,
        stats.fetch_stalls, stats.window_stalls, stats.lsq_stalls,
        stats.branches, stats.mispredicts,
        pipeline.ruu.state_summary(),
        pipeline.lsq.state_summary(),
        len(pipeline._pending_loads),
        pipeline._fetch_ready,
        pipeline._fetched_line,
        pipeline._last_commit_cycle,
        pipeline._trace_done,
        pipeline._fetch_buffer is not None,
        pipeline.done,
    )


def _node_summary(node) -> tuple:
    return (
        node.bshr.occupancy(), node.bshr.stats.waits,
        node.bshr.stats.found_in_bshr, node.bshr.stats.squashes,
        node.bshr.stats.arrivals,
        node.dcub.occupancy(), node.dcub.allocations, node.dcub.merges,
        node.broadcaster.stats.sent, node.broadcaster.stats.late,
        node.remote_loads, node.local_loads,
        node.dropped_stores, node.local_stores,
        node.tracker.stats.false_hits, node.tracker.stats.false_misses,
    )


# ----------------------------------------------------------------------
# Capture / materialize.
# ----------------------------------------------------------------------
def capture(kind: str, cycle: int, committed: int, tree: dict,
            cut=(), consumed=(), meta: "dict | None" = None) -> Checkpoint:
    """Deep-copy ``tree`` into a checkpoint, excising every edge in
    ``cut``.

    Purely observational for the running simulation: the live objects
    are only read.  Charged to a ``checkpoint-save`` span when a
    recorder is active."""
    memo = {}
    for obj in cut:
        if obj is not None:
            memo[id(obj)] = None
    with spans.span("checkpoint-save"):
        state = copy.deepcopy(tree, memo)
    return Checkpoint(kind=kind, cycle=cycle, committed=committed,
                      consumed=list(consumed), state=state,
                      meta=dict(meta or {}))


def materialize(checkpoint: Checkpoint) -> dict:
    """A fresh, independent copy of the snapshot's state tree.

    The checkpoint itself stays pristine (it may be resumed any number
    of times, from this process or — via pickle — another)."""
    if checkpoint.version != CHECKPOINT_VERSION:
        raise SimulationError(
            f"checkpoint format {checkpoint.version!r} does not match "
            f"this simulator's {CHECKPOINT_VERSION!r}")
    with spans.span("checkpoint-restore"):
        return copy.deepcopy(checkpoint.state)


def pipeline_cut_edges(pipeline):
    """The per-pipeline edges a snapshot must not follow: the live
    trace iterator (a generator or fan-out view), its pre-bound
    ``__next__``, the fan-out pending queue (shared with the tee, which
    is reconstructed from consumed counts instead), and the tracer."""
    yield pipeline._trace
    yield pipeline._trace_next
    yield pipeline._trace_queue
    yield pipeline._tracer


def datascalar_cut_edges(pipelines, nodes):
    """Every cut edge of a full DataScalar system: per-pipeline trace
    and observability edges plus each broadcaster's delivery closure
    (it closes over the live node list and wake array; restore rewires
    it against the clones)."""
    for pipeline in pipelines:
        yield from pipeline_cut_edges(pipeline)
    for node in nodes:
        yield node.broadcaster._deliver


def checkpointing(kind: str, checkpoint_every, checkpoint_sink, resume_from,
                  stop_after, warmup) -> bool:
    """Whether a run's checkpoint arguments ask for the checkpoint-enabled
    path; raises :class:`~repro.errors.SimulationError` on a combination
    that cannot work (``kind`` is the running system's snapshot kind)."""
    if (checkpoint_every is None and checkpoint_sink is None
            and resume_from is None and stop_after is None and not warmup):
        return False
    if checkpoint_every is not None:
        if checkpoint_every < 1:
            raise SimulationError("checkpoint_every must be >= 1")
        if checkpoint_sink is None:
            raise SimulationError(
                "checkpoint_every requires a checkpoint_sink")
    if resume_from is not None:
        if warmup:
            raise SimulationError(
                "warmup cannot be combined with resume_from — the "
                "checkpoint already fixes the front-end position")
        if resume_from.kind != kind:
            raise SimulationError(
                f"cannot resume a {resume_from.kind!r} checkpoint on a "
                f"{kind!r} system")
    return True


def counted_traces(traces, resume_from=None, warmup=None) -> list:
    """Wrap each front-end view in a :class:`~repro.isa.fanout.
    CountingTrace` and move it to where the timed run starts: the
    checkpoint's recorded positions, or ``warmup`` records in."""
    from ..isa.fanout import CountingTrace

    counted = [CountingTrace(trace) for trace in traces]
    if resume_from is not None:
        with spans.span("frontend-replay"):
            for trace, count in zip(counted, resume_from.consumed):
                advance_trace(trace, count)
    elif warmup:
        with spans.span("warmup"):
            for trace in counted:
                advance_trace(trace, warmup)
    return counted


def boundary_watcher(kind: str, pipelines, last_tick, traces, tree: dict,
                     cut, checkpoint_every, checkpoint_sink, stop_after):
    """The post-round hook of :func:`repro.core.system.drive` for a
    checkpoint-enabled run, or ``None`` when nothing is to be captured.

    After every tick of a cycle ``c`` it checks the minimum committed
    count over ``pipelines``; each boundary the round crossed (wide
    commit rounds can cross several — each nominal boundary gets its own
    capture, so warm-start lookups by boundary always land) is captured
    as ``cycle = c + 1``, the next cycle to simulate, and handed to
    ``checkpoint_sink``.  Reaching ``stop_after`` captures once more and
    stops the run.  ``last_tick`` is the driver's array: pipelines not
    ticked at ``c`` have their deferred stall accounting flushed first,
    so the snapshot is position-complete.  The flush splits a
    ``note_skipped`` range in two, which is exact because a skipped
    pipeline's fetch state is frozen between real ticks."""
    if checkpoint_every is None and stop_after is None:
        return None
    next_boundary = None
    if checkpoint_every is not None:
        start = min(p.stats.committed for p in pipelines)
        next_boundary = (start // checkpoint_every + 1) * checkpoint_every
    cut = tuple(cut)

    def take(cycle: int, committed: int, boundary: int) -> Checkpoint:
        return capture(kind, cycle, committed, tree, cut=cut,
                       consumed=[trace.consumed for trace in traces],
                       meta={"boundary": boundary})

    def after_round(cycle: int) -> bool:
        nonlocal next_boundary
        committed = min(p.stats.committed for p in pipelines)
        stop = stop_after is not None and committed >= stop_after
        if not stop and (next_boundary is None
                         or committed < next_boundary):
            return False
        nxt = cycle + 1
        for i, pipeline in enumerate(pipelines):
            if not pipeline.done and last_tick[i] <= cycle:
                pipeline.note_skipped(last_tick[i], nxt)
                last_tick[i] = nxt
        while next_boundary is not None and committed >= next_boundary:
            checkpoint_sink(take(nxt, committed, next_boundary))
            next_boundary += checkpoint_every
        if stop:
            checkpoint_sink(take(nxt, committed, stop_after))
        return stop

    return after_round


def advance_trace(trace, count: int) -> None:
    """Fast-forward a rebuilt front end by ``count`` records
    (functional warm-up: the records are re-derived and discarded; the
    restored machine state already accounts for them)."""
    step = trace.__next__
    try:
        for _ in range(count):
            step()
    except StopIteration:
        raise SimulationError(
            f"front end exhausted after fewer than {count} records while "
            f"advancing to a checkpoint — program or limit does not match "
            f"the checkpointed run") from None
