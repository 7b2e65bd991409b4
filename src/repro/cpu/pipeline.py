"""The out-of-order core timing model.

An 8-wide (configurable) machine with a unified RUU window, a load/store
queue half its size, pipelined functional units, and perfect branch
prediction (paper Section 4.2).  The pipeline consumes the functional
front end's dynamic trace — under perfect prediction the committed path
is the functional path, and no mis-speculated instructions exist (the
paper's correspondence protocol likewise excludes speculative broadcasts).

Per simulated cycle the pipeline commits (in order), issues (oldest-ready
first), and fetches/dispatches — each up to its configured width.  The
entries an issue pass cannot issue form the next pass's waiting list
(:meth:`repro.cpu.ruu.RUU.candidates`), oldest first.

One function, :meth:`Pipeline.tick`, simulates a cycle: the stages are
inlined in that order (load completion between commit and issue),
per-cycle attribute lookups are hoisted into locals, and the per-config
dispatch structures (FU latency/limit tables, widths, the RUU ring) are
precomputed at construction.  Wall time per layer is
attributed on this shipping tick by profiling (``benchmarks/perf/run.py
--trace 1``), not by a second, instrumented copy of it.
"""

from __future__ import annotations

from heapq import heappush as _heappush

from ..errors import SimulationError
from ..isa.opcodes import OpClass
from ..obs.events import EventKind
from ..params import CPUConfig
from .func_units import FUPool
from .interface import MemoryInterface
from .lsq import LSQ
from .ruu import RUU

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_COMMIT_EVENT = EventKind.COMMIT
_INF = float("inf")

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
    record stream (:func:`repro.isa.codegen.make_trace_source`, or any
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
        self._pending_loads = []
        #: False when the last issue pass showed its waiting list inert
        #: (see :meth:`next_event`).
        self._retry_waiting = False
        self._last_commit_cycle = 0
        self.done = False
        #: Observability hook (``None`` = untraced: zero overhead).
        self._tracer = None
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
    def tick(self, now: int) -> None:
        """Simulate cycle ``now``.  Sets :attr:`done` when the program has
        fully drained through the machine.

        Stage logic is inlined: commit → resolve → issue → fetch.
        """
        if self.done:
            return
        stats = self.stats
        stats.cycles = now + 1
        ruu = self.ruu
        window = ruu.window
        lsq = self.lsq
        tracer = self._tracer
        nxt = now + 1

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
        if (heap and heap[0][0] <= now) or ruu._waiting:
            batch, aged = ruu.candidates(now)
            fus = self.fus
            used = fus.begin_cycle(now)
            limits = fus.limit_table
            latencies = fus.latency_table
            width = self._issue_width
            issued = 0
            waiting = []
            wait = waiting.append
            for entry in batch:
                op_class = entry.op_class
                if issued >= width or used[op_class] >= limits[op_class]:
                    wait(entry)
                    continue
                # A load that then fails keeps its LOAD slot.
                used[op_class] += 1
                if op_class == _LOAD:
                    if not self._issue_load(entry, now):
                        wait(entry)
                        continue
                else:
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
            ruu.wait(waiting, aged)
            self._retry_waiting = issued > 0 or not aged

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
            if self.mem.drain(now):
                self.done = True
            return
        if now - self._last_commit_cycle > DEADLOCK_CYCLES:
            raise SimulationError(
                f"no commit for {DEADLOCK_CYCLES} cycles at cycle {now}; "
                f"head={ruu.head()!r}"
            )

    # ------------------------------------------------------------------
    # Stage helpers.
    # ------------------------------------------------------------------
    def _issue_load(self, entry, now: int) -> bool:
        """Issue the load ``entry`` at ``now``; False when it must wait
        for an earlier store to the same address (the caller keeps it
        waiting)."""
        ruu = self.ruu
        dyn = entry.dyn
        store = None
        fwd = dyn.fwd
        if fwd >= ruu.window[0].seq:
            # The youngest earlier overlapping store is in flight.
            store = ruu.ring[fwd & ruu.mask]
            if not store.issued:
                # May not bypass an unissued same-address store.
                return False
        if store is not None:
            self.lsq.forwards += 1
            entry.issued = True
            entry.issued_at = now
            handle = _ForwardedHandle(dyn.addr, dyn.size, now)
            entry.handle = handle
            when = store.issued_at + 1
            if when <= now:
                when = now + 1
            ruu.resolve(entry, when)
            return True
        entry.issued = True
        entry.issued_at = now
        handle = self.mem.load_issue(now, dyn.addr, dyn.size)
        entry.handle = handle
        ready = handle.ready
        if ready is not None:
            when = now + 1
            if ready > when:
                when = ready
            ruu.resolve(entry, when)
        else:
            self._pending_loads.append(entry)
        return True

    def _trace_stall(self, now: int, cause: str, cycles: int = 1) -> None:
        """Emit one fetch-stall episode (callers guard on the tracer).

        Dense ticking emits one-cycle events; :meth:`note_skipped` emits
        a single aggregated event per skipped range — the *totals* match
        the stall counters exactly either way."""
        self._tracer.emit(EventKind.ISSUE_STALL, now, self._trace_node,
                          cause=cause, cycles=cycles)

    def _peek_trace(self):
        if self._fetch_buffer is None and not self._trace_done:
            try:
                self._fetch_buffer = next(self._trace)
            except StopIteration:
                self._trace_done = True
        return self._fetch_buffer

    # ------------------------------------------------------------------
    # Fast-forward support (idle-cycle skipping).
    # ------------------------------------------------------------------
    def next_event(self, now: int) -> float:
        """Lower bound on the next cycle at which :meth:`tick` could do
        anything beyond pure stall bookkeeping.

        Valid only immediately after every pipeline in the system has
        ticked cycle ``now`` (cross-node broadcasts resolve load handles
        during other nodes' ticks).  Returns ``inf`` when this pipeline
        has no self-generated event — it is waiting on another node.
        The system loop takes the minimum across nodes — folding in any
        medium-level timers (the fault layer's pending recovery
        deliveries and armed BSHR wait deadlines) — and cycles before it
        are observationally idle everywhere and may be skipped once
        :meth:`note_skipped` replays their stall accounting.

        Pending loads whose handle already carries a known-future ready
        cycle (a BSHR/DCUB completion or a fault-recovery delivery
        materialized by an earlier broadcast) are resolved *eagerly*
        here, so they contribute their exact wake cycle instead of the
        conservative ``now + 1``.  Eager resolution is identical to what
        the next dense tick would do — ``resolve(entry, max(ready,
        issued_at + 1))`` does not depend on the tick cycle — and it is
        only legal when that wake cycle lies strictly past ``now + 1``:
        a result due at ``now + 1`` must stay pending so the dense
        commit-before-resolve stage order is preserved (commit may see
        the result only one cycle after the resolving tick).

        The waiting list forces ``now + 1`` only when the last issue
        pass issued something or took entries out of age order.  A
        pass in age order that issued nothing held only loads (a
        non-load whose class has a free slot always issues), each
        blocked by an unissued same-address store or left without a
        LOAD slot by blocked older loads.  Every later pass over the same list
        re-fails the same way until a new entry comes due, and
        everything that brings one is bounded here anyway: the heap
        top, pending loads, fetch, and deliveries (which zero the
        wake).
        """
        if self.done:
            return _INF
        nxt = now + 1
        pending = self._pending_loads
        tick_next = False
        if pending:
            resolve = self.ruu.resolve
            kept = 0
            for entry in pending:
                ready = entry.handle.ready
                if ready is None:
                    pending[kept] = entry
                    kept += 1
                    continue
                when = entry.issued_at + 1
                if ready > when:
                    when = ready
                if when <= nxt:
                    # Due immediately: the next tick must collect it.
                    pending[kept] = entry
                    kept += 1
                    tick_next = True
                else:
                    resolve(entry, when)
            if kept != len(pending):
                del pending[kept:]
            if tick_next:
                return nxt
        bound = _INF
        ruu = self.ruu
        if self._retry_waiting and ruu._waiting:
            return nxt
        heap = ruu._ready_heap
        if heap:
            ready = heap[0][0]
            if ready <= nxt:
                return nxt
            bound = ready
        window = ruu.window
        head = window[0] if window else None
        if head is not None and head.issued \
                and head.result_time is not None:
            when = head.result_time
            if when <= nxt:
                return nxt
            if when < bound:
                bound = when
        if not self._trace_done:
            if nxt < self._fetch_ready:
                if self._fetch_ready < bound:
                    bound = self._fetch_ready
            elif len(window) < ruu.capacity:
                dyn = self._peek_trace()
                if dyn is not None and not (
                        dyn.op_class in (_LOAD, _STORE)
                        and self.lsq.is_full()):
                    return nxt  # fetch dispatches next cycle
        if self._trace_done and not window:
            return nxt  # drain handshake must run every cycle
        return bound

    def note_skipped(self, start: int, stop: int) -> None:
        """Replay stall accounting for skipped cycles ``[start, stop)``.

        The system loop guarantees the range is observationally idle for
        this pipeline (``stop`` is at most :meth:`next_event`), so each
        skipped tick would have incremented exactly the stall counter
        its frozen fetch state selects — mirroring the fetch stage's
        branch order in :meth:`tick`: fetch-ready, window, LSQ.
        """
        cycles = stop - start
        if cycles <= 0 or self.done:
            return
        stats = self.stats
        if self._trace_done:
            return
        if start < self._fetch_ready:
            stats.fetch_stalls += cycles
            if self._tracer is not None:
                self._trace_stall(start, "fetch", cycles)
            return
        if self.ruu.is_full():
            stats.window_stalls += cycles
            if self._tracer is not None:
                self._trace_stall(start, "window", cycles)
            return
        dyn = self._peek_trace()
        if dyn is not None and dyn.op_class in (_LOAD, _STORE) \
                and self.lsq.is_full():
            stats.lsq_stalls += cycles
            if self._tracer is not None:
                self._trace_stall(start, "lsq", cycles)

    # ------------------------------------------------------------------
    # Dense reference loop.
    # ------------------------------------------------------------------
    def run(self, max_cycles: int) -> PipelineStats:
        """Tick every cycle until done; returns the stats.  Systems run
        through :func:`repro.core.system.drive` instead; this plain loop
        is the dense reference tests compare against."""
        tick = self.tick
        for cycle in range(max_cycles):
            tick(cycle)
            if self.done:
                return self.stats
        raise SimulationError(f"program did not finish in {max_cycles} cycles")


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
