"""The out-of-order core timing model.

An 8-wide (configurable) machine with a unified RUU window, a load/store
queue half its size, pipelined functional units, and perfect branch
prediction (paper Section 4.2).  The pipeline consumes the functional
front end's dynamic trace — under perfect prediction the committed path
is the functional path, and no mis-speculated instructions exist (the
paper's correspondence protocol likewise excludes speculative broadcasts).

Per simulated cycle the pipeline commits (in order), issues (oldest-ready
first), and fetches/dispatches — each up to its configured width.  The
ready entries an issue pass cannot issue wait for the next pass in two
age-ordered lists (:class:`repro.cpu.ruu.RUU`): the loads, and the
rest.  Every load a pass visits either takes a LOAD slot (a load
blocked by an unissued same-address store keeps it) or finds the issue
width or the LOAD slots used up, and neither count falls within a
pass; so no load after as many loads as there are LOAD slots can
issue.  A pass visits only that many of the oldest waiting loads and
carries the rest of the load list over as one slice.

One function, :meth:`Pipeline.tick`, simulates a cycle: the stages are
inlined in that order (load completion between commit and issue),
per-cycle attribute lookups are hoisted into locals, and the per-config
dispatch structures (FU latency/limit tables, widths, the RUU ring) are
precomputed at construction.  The tick ends by returning the first
later cycle at which a tick could do more than count a stall, so a
scheduler may skip the cycles before it (``tick`` then counts their
stalls itself).  Wall time per layer is
attributed on this shipping tick by profiling (``benchmarks/perf/run.py
--trace 1``), not by a second, instrumented copy of it.
"""

from __future__ import annotations

from heapq import heappop as _heappop
from heapq import heappush as _heappush
from operator import attrgetter

from ..errors import SimulationError
from ..isa.opcodes import OpClass
from ..obs.events import EventKind
from ..obs.tracer import Tracer
from ..params import CPUConfig
from .func_units import FUPool
from .interface import MemoryInterface
from .lsq import LSQ
from .ruu import RUU, RUUEntry

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_COMMIT_EVENT = EventKind.COMMIT
_entry_seq = attrgetter("seq")

#: Cycles with no commit before the pipeline declares itself wedged.
DEADLOCK_CYCLES = 1_000_000


class PipelineStats:
    """Counters published by one core.

    ``branches`` and ``mispredicts`` are always 0: branch prediction is
    perfect (paper Section 4.2).  They stay slots because
    ``result_fingerprint`` hashes every slot, so removing them would move
    every recorded result digest.
    """

    __slots__ = ("committed", "loads", "stores", "cycles", "fetch_stalls",
                 "window_stalls", "lsq_stalls", "branches", "mispredicts")

    def __init__(self):
        self.committed = 0
        self.loads = 0
        self.stores = 0
        self.cycles = 0
        self.fetch_stalls = 0
        self.window_stalls = 0
        self.lsq_stalls = 0
        self.branches = 0
        self.mispredicts = 0

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0


class Pipeline:
    """One out-of-order core bound to a memory system and an annotated
    record stream (:func:`repro.isa.make_trace_source`, or any
    stream passed through :func:`repro.isa.annotate`).  A memory system
    with caches reads their outcomes from the records, so its stream
    also passes through :func:`repro.memory.canonical_outcomes`."""

    def __init__(self, config: CPUConfig, mem: MemoryInterface, trace):
        self.config = config
        self.mem = mem
        self._trace = iter(trace)
        self._trace_next = self._trace.__next__
        # Fan-out views expose their buffered-record deque; pulling from
        # it directly skips a call layer on the fetch fast path.  Any
        # other trace source leaves this ``None`` (falsy), falling back
        # to the iterator protocol.
        self._trace_queue = getattr(self._trace, "_queue", None)
        self._trace_done = False
        self._fetch_buffer = None
        self.ruu = RUU(config.ruu_entries)
        self.lsq = LSQ(config.lsq_entries)
        self.fus = FUPool(config)
        self.stats = PipelineStats()
        # Per-config dispatch structures, hoisted once so the per-cycle
        # fast path never chases ``self.config``.
        self._latencies = self.fus.latency_table
        self._limits = self.fus.limit_table
        self._commit_width = config.commit_width
        self._issue_width = config.issue_width
        self._fetch_width = config.fetch_width
        # Pre-bound memory-system methods (the binding is per-call
        # otherwise, and commit hits one once per memory instruction).
        self._commit_mem = mem.commit_mem
        self._ifetch_miss = mem.ifetch_miss
        self._fetch_ready = 0
        #: The record whose I-cache miss fetch last started, so that the
        #: fetch retried after the stall does not fetch its line again.
        self._imiss_record = None
        self._pending_loads: list[RUUEntry] = []
        #: The stall a cycle skipped after the last tick counts
        #: (``"fetch"``, ``"window"``, ``"lsq"``, or ``None``).
        self._skip_stall: str | None = None
        self._last_commit_cycle = 0
        self.done = False
        #: Observability hook (``None`` = untraced: zero overhead).
        self._tracer: Tracer | None = None
        self._trace_node = 0

    def attach_tracer(self, tracer, node_id: int) -> None:
        """Emit this pipeline's events to ``tracer`` as node ``node_id``.

        Tracing is purely observational: no architectural state or
        reported statistic changes, with fast-forward on or off."""
        self._tracer = tracer
        self._trace_node = node_id

    # ------------------------------------------------------------------
    # One simulated cycle — the flat fast path.
    # ------------------------------------------------------------------
    def tick(self, now: int) -> int:
        """Simulate cycle ``now``.  Sets :attr:`done` when the program has
        fully drained through the machine.

        Stage logic is inlined: commit → resolve → issue → fetch.

        Returns the first cycle after ``now`` at which a tick could do
        more than count a stall; the caller may skip the cycles before
        it (:func:`repro.core.system.drive`).  Whatever a peer delivers
        in between is the caller's to wake on.  A pipeline with no event
        of its own (waiting on a peer) returns its deadlock-detector
        tick, where a tick raises if nothing came.  The next tick counts
        the skipped cycles' stalls: each would have counted the stall
        that this tick's end state selects (:attr:`_skip_stall`).
        """
        if self.done:
            return now + 1
        stats = self.stats
        tracer = self._tracer
        skipped = now - stats.cycles
        if skipped > 0:
            stall = self._skip_stall
            if stall is not None:
                if stall == "fetch":
                    stats.fetch_stalls += skipped
                elif stall == "window":
                    stats.window_stalls += skipped
                else:
                    stats.lsq_stalls += skipped
                if tracer is not None:
                    self._trace_stall(stats.cycles, stall, skipped)
        nxt = now + 1
        stats.cycles = nxt
        ruu = self.ruu
        window = ruu.window
        lsq = self.lsq

        # ---- commit stage (in order, up to commit_width) ----
        if window:
            head = window[0]
            if head.issued:
                result_time = head.result_time
                if result_time is not None and result_time <= now:
                    committed = 0
                    width = self._commit_width
                    commit_mem = self._commit_mem
                    popleft = window.popleft
                    released = 0
                    while True:
                        if tracer is not None:
                            tracer.emit(_COMMIT_EVENT, now, self._trace_node,
                                        seq=head.seq, op=head.op_class)
                        op_class = head.op_class
                        if op_class == _LOAD:
                            commit_mem(now, head.dyn, head.handle)
                            released += 1
                            stats.loads += 1
                        elif op_class == _STORE:
                            commit_mem(now, head.dyn, head.handle)
                            released += 1
                            stats.stores += 1
                        # The head's ring slot is free for reuse (ruu.py).
                        popleft()
                        committed += 1
                        if committed >= width or not window:
                            break
                        head = window[0]
                        if not head.issued:
                            break
                        result_time = head.result_time
                        if result_time is None or result_time > now:
                            break
                    stats.committed += committed
                    lsq.occupancy -= released
                    self._last_commit_cycle = now

        # ---- load completion (memory system resolves asynchronously) ----
        pending = self._pending_loads
        if pending:
            kept = 0
            resolve = ruu.resolve
            for entry in pending:
                ready = entry.handle.ready
                if ready is None:
                    pending[kept] = entry
                    kept += 1
                else:
                    when = entry.issued_at + 1
                    if ready > when:
                        when = ready
                    resolve(entry, when)
            if kept != len(pending):
                del pending[kept:]

        # ---- issue stage (oldest-ready first, up to issue_width) ----
        heap = ruu._ready_heap
        loads = ruu._waiting_loads
        others = ruu._waiting_others
        retry = False
        if (heap and heap[0][0] <= now) or loads or others:
            limits = self._limits
            load_limit = limits[_LOAD]
            # The walk: entries ready before ``now`` first, by (ready
            # cycle, age); then, merged by age, the entries ready now,
            # the waiting non-loads and the ``load_limit`` oldest
            # waiting loads.  No younger load could issue: the rest of
            # the load list waits as one slice, unvisited.
            walk: list[RUUEntry] = []
            while heap and heap[0][0] < now:
                walk.append(_heappop(heap)[2])
            early = len(walk)
            while heap and heap[0][0] <= now:
                walk.append(_heappop(heap)[2])
            if others or loads:
                due = walk[early:] + others + loads[:load_limit]
                due.sort(key=_entry_seq)
                walk[early:] = due
                others.clear()
            latencies = self._latencies
            used = [0] * len(limits)
            width = self._issue_width
            ring = ruu.ring
            mask = ruu.mask
            head_seq = window[0].seq
            issued = 0
            claimed = 0
            stalled: list[RUUEntry] = []
            for entry in walk:
                op_class = entry.op_class
                if op_class == _LOAD:
                    if issued >= width or claimed >= load_limit:
                        stalled.append(entry)
                        continue
                    # A load blocked by an unissued same-address store
                    # keeps its LOAD slot.
                    claimed += 1
                    fwd = entry.dyn.fwd
                    if fwd < head_seq:
                        store = None
                    else:
                        store = ring[fwd & mask]
                        if not store.issued:
                            stalled.append(entry)
                            continue
                    self._issue_load(entry, now, store)
                else:
                    if issued >= width or used[op_class] >= limits[op_class]:
                        others.append(entry)
                        continue
                    used[op_class] += 1
                    entry.issued = True
                    entry.issued_at = now
                    if op_class == _STORE:
                        when = nxt
                    else:
                        when = now + latencies[op_class]
                    # Inlined RUU.resolve (fixed-latency completion):
                    entry.result_time = when
                    dependents = entry.dependents
                    if dependents:
                        for dep in dependents:
                            if when > dep.operand_time:
                                dep.operand_time = when
                            dep.unresolved -= 1
                            if dep.unresolved == 0 and not dep.issued:
                                _heappush(heap, (dep.operand_time,
                                                 dep.seq, dep))
                        entry.dependents = None
                issued += 1
            if stalled or loads:
                # The loads left waiting: the stalled ones, then the
                # slice never visited.  A pass out of age order, or a
                # stalled load younger than the slice's first, sorts it.
                resort = early or (
                    stalled and len(loads) > load_limit
                    and stalled[-1].seq > loads[load_limit].seq)
                loads[:load_limit] = stalled
                if resort:
                    loads.sort(key=_entry_seq)
            if early:
                others.sort(key=_entry_seq)
            retry = issued > 0 or early > 0

        # ---- fetch/dispatch stage (perfect branch prediction) ----
        if self._trace_done or now < self._fetch_ready:
            if not self._trace_done:
                stats.fetch_stalls += 1
                if tracer is not None:
                    self._trace_stall(now, "fetch")
        else:
            buffer = self._fetch_buffer
            trace_next = self._trace_next
            trace_queue = self._trace_queue
            dispatch = ruu.dispatch
            window_cap = ruu.capacity
            lsq_used = lsq.occupancy
            lsq_cap = lsq.capacity
            imiss_record = self._imiss_record
            for _ in range(self._fetch_width):
                dyn = buffer
                if dyn is None:
                    if trace_queue:
                        dyn = trace_queue.popleft()
                    else:
                        try:
                            dyn = trace_next()
                        except StopIteration:
                            self._trace_done = True
                            break
                    buffer = dyn
                if len(window) >= window_cap:
                    stats.window_stalls += 1
                    if tracer is not None:
                        self._trace_stall(now, "window")
                    break
                op_class = dyn.op_class
                is_mem = op_class == _LOAD or op_class == _STORE
                if is_mem and lsq_used >= lsq_cap:
                    if lsq_used > lsq_cap:
                        raise SimulationError(
                            f"LSQ overflow: {lsq_used} entries in "
                            f"{lsq_cap} — check dispatch gating")
                    stats.lsq_stalls += 1
                    if tracer is not None:
                        self._trace_stall(now, "lsq")
                    break
                line = dyn.imiss_line
                if line is not None and dyn is not imiss_record:
                    imiss_record = dyn
                    ready = self._ifetch_miss(now, line)
                    if ready > now:
                        # Miss: the rest of this fetch group waits.
                        self._fetch_ready = ready
                        break
                buffer = None
                dispatch(dyn, nxt)
                if is_mem:
                    lsq_used += 1
            lsq.occupancy = lsq_used
            self._imiss_record = imiss_record
            self._fetch_buffer = buffer

        if self._trace_done and not window:
            self.done = True
            return nxt
        last_commit = self._last_commit_cycle
        if now - last_commit > DEADLOCK_CYCLES:
            raise SimulationError(
                f"no commit for {DEADLOCK_CYCLES} cycles at cycle {now}; "
                f"head={ruu.head()!r}"
            )

        # ---- wake bound ----
        # Waiting entries need the next cycle only if this pass issued
        # something or ran out of age order.  A pass in age order that
        # issued nothing left no non-load waiting (a non-load whose
        # class has a free slot always issues), and each waiting load
        # blocked by an unissued same-address store or left without a
        # LOAD slot by blocked older loads.  Every later pass re-fails
        # the same way until a new entry comes due, which the heap top,
        # the head, fetch and deliveries (the caller's) all bound.
        # Every pending load still waits on a delivery: this tick's
        # load completion resolved those whose handle was ready, and
        # only a peer's broadcast fills one in.
        if retry and (loads or others):
            return nxt
        bound = last_commit + DEADLOCK_CYCLES + 1
        if heap:
            ready = heap[0][0]
            if ready <= nxt:
                return nxt
            if ready < bound:
                bound = ready
        if window:
            result_time = window[0].result_time
            if result_time is not None:
                if result_time <= nxt:
                    return nxt
                if result_time < bound:
                    bound = result_time
        # Fetch, in its stage's branch order: a skipped cycle counts the
        # stall its frozen state selects.
        stall = None
        if not self._trace_done:
            fetch_ready = self._fetch_ready
            if nxt < fetch_ready:
                stall = "fetch"
                if fetch_ready < bound:
                    bound = fetch_ready
            elif len(window) >= ruu.capacity:
                stall = "window"
            else:
                dyn = self._peek_trace()
                if dyn is not None:
                    op_class = dyn.op_class
                    if (op_class == _LOAD or op_class == _STORE) \
                            and lsq.occupancy >= lsq.capacity:
                        stall = "lsq"
                    else:
                        return nxt  # fetch dispatches next cycle
        self._skip_stall = stall
        return bound

    # ------------------------------------------------------------------
    # Stage helpers.
    # ------------------------------------------------------------------
    def _issue_load(self, entry: RUUEntry, now: int,
                    store: RUUEntry | None) -> None:
        """Issue the load ``entry`` at ``now``: from ``store``, its
        in-flight forwarding store (already issued), or else from the
        memory system."""
        entry.issued = True
        entry.issued_at = now
        dyn = entry.dyn
        if store is not None:
            self.lsq.forwards += 1
            entry.handle = _ForwardedHandle(dyn.addr, dyn.size, now)
            when = store.issued_at + 1
            if when <= now:
                when = now + 1
            self.ruu.resolve(entry, when)
            return
        handle = self.mem.load_issue(now, dyn.addr, dyn.size)
        entry.handle = handle
        ready = handle.ready
        if ready is not None:
            when = now + 1
            if ready > when:
                when = ready
            self.ruu.resolve(entry, when)
        else:
            self._pending_loads.append(entry)

    def _trace_stall(self, now: int, cause: str, cycles: int = 1) -> None:
        """Emit one fetch-stall episode (callers guard on the tracer, so
        an untraced run never calls this).

        Dense ticking emits one-cycle events; the tick that follows a
        skipped range emits one aggregated event for it — the *totals*
        match the stall counters exactly either way."""
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(EventKind.ISSUE_STALL, now, self._trace_node,
                        cause=cause, cycles=cycles)

    def _peek_trace(self):
        if self._fetch_buffer is None and not self._trace_done:
            try:
                self._fetch_buffer = next(self._trace)
            except StopIteration:
                self._trace_done = True
        return self._fetch_buffer


class _ForwardedHandle:
    """Handle for a load serviced by an in-queue store (1-cycle)."""

    __slots__ = ("addr", "size", "issued_at", "ready", "issue_hit",
                 "found_in_bshr", "forwarded", "dcub_line")

    def __init__(self, addr, size, now):
        self.addr = addr
        self.size = size
        self.issued_at = now
        self.ready = now + 1
        self.issue_hit = None
        self.found_in_bshr = False
        self.forwarded = True
        self.dcub_line = None
