"""One DataScalar node: the Figure 5 datapath.

A node couples an out-of-order core with split L1 caches, fast on-chip
main memory holding its fraction of the program's data, BSHRs on the
receive side, a broadcast queue on the transmit side, a DCUB realizing
commit-time cache updates, and the correspondence tracker that reconciles
issue-time and commit-time cache outcomes.

Memory behaviour per the execution model:

* replicated pages — loads and stores complete locally; no traffic.
* owned communicated pages — a canonical load miss reads local memory and
  *broadcasts* the line (eagerly at issue, or reparatively at commit after
  a false hit); stores complete locally and are never sent.
* unowned communicated pages — a load miss waits in the BSHR for the
  owner's broadcast (no request is ever sent); stores are dropped.

Cache state changes only at commit, in program order, so the canonical
I- and D-cache outcomes are the same at every node and come with the
records (:func:`repro.memory.canonical_outcomes`).  A node keeps only
the set of lines its D-cache holds, for issue-time probes, and checks
it against each canonical outcome at commit.
"""

from __future__ import annotations

from ..cpu.interface import LoadHandle, MemoryInterface
from ..isa.opcodes import OpClass
from ..memory.cache import apply_outcome
from ..memory.mainmem import BankedMemory
from ..memory.page_table import PageTable
from ..obs.events import EventKind
from ..params import NodeConfig
from .broadcast import Broadcaster
from .bshr import BSHRFile
from .correspondence import CorrespondenceTracker
from .dcub import DCUB

_STORE = int(OpClass.STORE)


class _PrimaryHandle(LoadHandle):
    """The load that initiates a line fetch; resolving it resolves the
    DCUB entry (waking every merged access)."""

    __slots__ = ("entry",)

    def __init__(self, addr, size, issued_at, entry):
        super().__init__(addr, size, issued_at)
        self.entry = entry

    def complete(self, cycle: int) -> None:
        super().complete(cycle)
        self.entry.resolve(cycle)


class DataScalarNode(MemoryInterface):
    """The per-chip memory system behind one core."""

    def __init__(self, node_id: int, config: NodeConfig,
                 page_table: PageTable, medium, deliver,
                 num_peers: int = 1):
        self.node_id = node_id
        self.config = config
        self.page_table = page_table
        #: Line addresses this node's D-cache holds (the issue-time
        #: view), advanced at each memory commit by ``apply_outcome``.
        self.resident: set[int] = set()
        self._line_mask = ~(config.dcache.line_size - 1)
        self._where = f"node {node_id}"
        self.local_mem = BankedMemory(
            config.memory.onchip_latency,
            num_banks=config.memory.num_banks,
            interleave_bytes=config.dcache.line_size,
            name=f"mem{node_id}",
        )
        self.bshr = BSHRFile(config.bshr, name=f"bshr{node_id}")
        self.dcub = DCUB(name=f"dcub{node_id}")
        self.tracker = CorrespondenceTracker()
        self.broadcaster = Broadcaster(
            node_id, medium, config.broadcast_queue_latency,
            config.dcache.line_size, deliver, num_peers=num_peers,
        )
        # Hot-path constant (load_issue runs once per load issue).
        self._d_hit_latency = config.dcache.hit_latency
        #: Canonical D-cache accesses and misses, counted at commit.
        self.dcache_accesses = 0
        self.dcache_misses = 0
        #: Loads that bypassed the cache but still update it at commit.
        self.remote_loads = 0
        self.local_loads = 0
        self.dropped_stores = 0
        self.local_stores = 0
        self._tracer = None  # observability hook (None = untraced)

    def attach_tracer(self, tracer) -> None:
        """Emit this node's (and its subsystems') events to ``tracer``.

        Tracing is purely observational: no architectural state or
        reported statistic changes."""
        self._tracer = tracer
        self.bshr.attach_tracer(tracer, self.node_id)
        self.dcub.attach_tracer(tracer, self.node_id)
        self.broadcaster.attach_tracer(tracer)

    # ------------------------------------------------------------------
    # Issue side.
    # ------------------------------------------------------------------
    def load_issue(self, now: int, addr: int, size: int) -> LoadHandle:
        line = addr & self._line_mask
        hit_latency = self._d_hit_latency
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
        entry = self.dcub.allocate(line, now)  # refs=1 for the primary
        handle = _PrimaryHandle(addr, size, now, entry)
        handle.issue_hit = False
        handle.dcub_line = line
        pte = self.page_table.entry_for(addr)
        if pte.replicated or pte.owner == self.node_id:
            self.local_loads += 1
            done = self.local_mem.access(now + hit_latency, line)
            if not pte.replicated:
                # Owner of a communicated line: eager ESP broadcast.
                self.broadcaster.broadcast(done, line, late=False)
                self.tracker.note_broadcast_sent(line)
            handle.complete(done)
        else:
            self.remote_loads += 1
            self.tracker.note_bshr_wait(line)
            self.bshr.load(now, line, handle)
        return handle

    # ------------------------------------------------------------------
    # Commit side: canonical cache update + correspondence settlement.
    # ------------------------------------------------------------------
    def commit_mem(self, now: int, dyn, handle) -> None:
        addr = dyn.addr
        line = addr & self._line_mask
        result = dyn.dcache_result
        apply_outcome(self.resident, line, result, now, self._where)
        is_store = dyn.op_class == _STORE
        canonical_hit = result.hit
        self.dcache_accesses += 1
        if not canonical_hit:
            self.dcache_misses += 1
        if result.writeback is not None:
            self._complete_writeback(now, result.writeback)
        if handle is not None and handle.dcub_line is not None:
            if self.dcub.release(handle.dcub_line) \
                    and self._tracer is not None:
                self._tracer.emit(EventKind.DCUB_APPLY, now, self.node_id,
                                  line=handle.dcub_line)
        if not is_store and handle is not None and handle.issue_hit is not None:
            self.tracker.classify(handle.issue_hit, canonical_hit)
        if is_store:
            self._complete_store(now, addr, canonical_hit)
        if result.filled:
            self._settle_canonical_miss(now, addr, line)

    def _settle_canonical_miss(self, now: int, addr: int, line: int) -> None:
        """A canonical line fetch committed: balance broadcasts against
        waits so every broadcast has exactly one consumer per node."""
        pte = self.page_table.entry_for(addr)
        if pte.replicated:
            return
        if pte.owner == self.node_id:
            if self.tracker.settle_canonical_miss_owner(line):
                if self._tracer is not None:
                    self._tracer.emit(EventKind.FALSE_HIT_REPAIR, now,
                                      self.node_id, line=line,
                                      action="late-broadcast")
                # With no peers there is no one to repair, so no read.
                if self.broadcaster.num_peers:
                    available = self.local_mem.access(now, line)
                    self.broadcaster.broadcast(available, line, late=True)
        else:
            if self.tracker.settle_canonical_miss_nonowner(line):
                if self._tracer is not None:
                    self._tracer.emit(EventKind.FALSE_HIT_REPAIR, now,
                                      self.node_id, line=line,
                                      action="discard")
                self.bshr.schedule_discard(line)

    def _complete_store(self, now: int, addr: int, cached: bool) -> None:
        """Stores complete only where the data lives (paper Section 2);
        they never generate interconnect traffic."""
        if cached:
            return  # completes in the cache; write-back handles memory
        pte = self.page_table.entry_for(addr)
        if pte.replicated or pte.owner == self.node_id:
            self.local_stores += 1
            self.local_mem.access(now, addr)  # occupies a bank, no stall
        else:
            self.dropped_stores += 1

    def _complete_writeback(self, now: int, line: int) -> None:
        """Dirty evictions: written to local memory at the owner (or
        everywhere for replicated lines), dropped at non-owners."""
        pte = self.page_table.entry_for(line)
        if pte.replicated or pte.owner == self.node_id:
            self.local_mem.access(now, line)
        else:
            self.dropped_stores += 1

    # ------------------------------------------------------------------
    # Instruction fetch (text replicated at every node).
    # ------------------------------------------------------------------
    def ifetch_miss(self, now: int, line: int) -> int:
        return self.local_mem.access(now, line)

    # ------------------------------------------------------------------
    # End-of-run validation.
    # ------------------------------------------------------------------
    def validate_final_state(self) -> None:
        """Raise :class:`ProtocolError` if the protocol leaked state."""
        from ..errors import ProtocolError

        self.bshr.assert_drained()
        self.dcub.assert_drained()
        unmatched = self.tracker.unmatched_waits()
        if unmatched:
            raise ProtocolError(
                f"node {self.node_id}: {unmatched} BSHR waits never matched "
                f"a canonical miss — correspondence accounting leak"
            )
