"""Unit tests for the out-of-order pipeline against a perfect memory."""

from heapq import heappop

import pytest

from repro.baseline.perfect import PerfectMemory, PerfectSystem
from repro.core.system import drive
from repro.cpu.func_units import FUPool
from repro.cpu.interface import LoadHandle
from repro.cpu.pipeline import Pipeline
from repro.cpu.ruu import RUU
from repro.errors import SimulationError
from repro.isa import Interpreter, ProgramBuilder
from repro.isa.opcodes import OpClass
from repro.isa.trace import DynInstr, annotate
from repro.params import CPUConfig


def _pipeline(program, cpu=None, mem=None):
    trace = annotate(Interpreter(program).trace())
    return Pipeline(cpu or CPUConfig(), mem or PerfectMemory(), trace)


def _run(pipeline, max_cycles=100_000):
    """Drive ``pipeline`` to completion on the one cycle scheduler;
    return its stats."""
    drive([pipeline], max_cycles, what="pipeline")
    return pipeline.stats


def _linear_program(n_adds=32):
    b = ProgramBuilder()
    b.li("r1", 0)
    for _ in range(n_adds):
        b.addi("r1", "r1", 1)
    b.halt()
    return b.build()


def _independent_program(n=32):
    b = ProgramBuilder()
    for i in range(n):
        b.li(f"r{1 + (i % 24)}", i)
    b.halt()
    return b.build()


# ----------------------------------------------------------------------
# RUU mechanics.
# ----------------------------------------------------------------------
def _dyn(seq, op_class=OpClass.IALU, dest=None, srcs=(), addr=None, size=0):
    return DynInstr(seq, 0x400000 + 4 * seq, int(op_class), dest, srcs,
                    addr, size)


def _annotated(*records):
    """``records`` as dispatch sees them: annotated in stream order."""
    return list(annotate(records))


def _unwired(seq):
    """A record with no producers, annotated by hand so that tests can
    dispatch seqs out of stream order."""
    dyn = _dyn(seq)
    dyn.deps = ()
    dyn.fwd = -1
    return dyn


def _take(ruu, now):
    """Pop the entries an issue pass at ``now`` takes off the ready heap,
    in the order it takes them: their seqs, and whether every one was
    ready exactly at ``now`` (none early)."""
    taken = []
    heap = ruu._ready_heap
    while heap and heap[0][0] <= now:
        ready, seq, _ = heappop(heap)
        taken.append((ready, seq))
    return [seq for _, seq in taken], all(ready == now for ready, _ in taken)


def test_ruu_dependency_wakeup():
    ruu = RUU(capacity=8)
    first, second = _annotated(_dyn(0, dest=1), _dyn(1, srcs=(1,)))
    assert second.deps == [0]
    producer = ruu.dispatch(first, now=0)
    consumer = ruu.dispatch(second, now=0)
    assert consumer.unresolved == 1
    assert _take(ruu, 0) == ([0], True)
    ruu.resolve(producer, result_time=5)
    assert consumer.unresolved == 0
    assert _take(ruu, 4) == ([], True)
    # Ready at 5, taken at 10: an entry ready before ``now`` is early.
    assert _take(ruu, 10) == ([1], False)
    assert consumer.operand_time == 5


def test_ruu_known_producer_time_used_at_dispatch():
    ruu = RUU(capacity=8)
    first, second = _annotated(_dyn(0, dest=1), _dyn(1, srcs=(1,)))
    producer = ruu.dispatch(first, now=0)
    ruu.resolve(producer, result_time=7)
    consumer = ruu.dispatch(second, now=1)
    assert consumer.unresolved == 0
    assert consumer.operand_time == 7


def test_ruu_capacity():
    ruu = RUU(capacity=2)
    first, second = _annotated(_dyn(0), _dyn(1))
    ruu.dispatch(first, 0)
    assert len(ruu) < ruu.capacity
    ruu.dispatch(second, 0)
    assert len(ruu) == ruu.capacity


def test_ruu_schedulable_is_oldest_first():
    ruu = RUU(capacity=8)
    for dyn in _annotated(_dyn(0), _dyn(1), _dyn(2)):
        ruu.dispatch(dyn, 0)
    assert _take(ruu, 0) == ([0, 1, 2], True)


def _hand_record(seq, op_class, addr, fwd=-1):
    """A memory record with no producers, annotated by hand (see
    :func:`_unwired`); a load's forwarding store is ``fwd``."""
    dyn = _dyn(seq, op_class, addr=addr, size=4)
    dyn.deps = ()
    dyn.fwd = fwd
    return dyn


def _load_issue_order(agen):
    """Seqs of the loads each issue pass issues, in issue order, with
    ``agen`` LOAD slots, over a window filled by hand: loads 1 and 6,
    ready at 4, wait behind store 0, which is ready at 5; then loads
    2 and 4 come ready at 5, and 5 and 7 early, at 2 and 3."""
    cpu = CPUConfig(fu_counts=dict(CPUConfig().fu_counts, AGEN=agen))
    pipe = Pipeline(cpu, PerfectMemory(), iter(()))
    issue_load = pipe._issue_load
    passes = {}

    def recording(entry, now, store):
        passes.setdefault(now, []).append(entry.seq)
        issue_load(entry, now, store)

    pipe._issue_load = recording
    ruu = pipe.ruu
    ruu.dispatch(_hand_record(0, OpClass.STORE, 0x1000), now=5)
    for seq in (1, 6):
        ruu.dispatch(_hand_record(seq, OpClass.LOAD, 0x1000, fwd=0), now=4)
    pipe.tick(4)  # both loads wait: the store has not issued
    assert [entry.seq for entry in ruu._waiting_loads] == [1, 6]
    for seq, ready in ((2, 5), (4, 5), (5, 2), (7, 3)):
        ruu.dispatch(_hand_record(seq, OpClass.LOAD, 0x2000 + 8 * seq),
                     now=ready)
    for now in range(5, 9):
        pipe.tick(now)
    assert not ruu._waiting_loads and not ruu._ready_heap
    return passes


def test_issue_pass_puts_early_entries_first_then_merges_by_age():
    """Entries ready before ``now`` lead, by (ready time, age); the
    waiting loads and the entries ready exactly at ``now`` follow,
    merged by age (the store, 0, issues before the loads behind it).
    With two LOAD slots, the loads the pass at 5 cannot issue, from
    the waiting list and from the heap alike, wait in age order."""
    assert _load_issue_order(agen=8) == {5: [5, 7, 1, 2, 4, 6]}
    assert _load_issue_order(agen=2) == {5: [5, 7], 6: [1, 2], 7: [4, 6]}


def test_blocked_load_keeps_the_only_load_slot_in_an_aged_pass():
    """With one LOAD slot, an older load blocked behind an unissued
    same-address store claims the slot in every pass: the younger free
    load behind it waits until the store issues, while a younger ALU
    op issues in the blocked pass itself."""
    b = ProgramBuilder()
    buf = b.alloc_global_words("buf", 64)
    b.li("r15", buf)
    b.li("r1", 3)
    b.mul("r1", "r1", "r1")
    b.mul("r1", "r1", "r1")   # the store's data: ready at cycle 8
    b.sw("r1", "r15", 0)      # the store
    b.lw("r7", "r15", 0)      # older load: blocked behind the store
    b.lw("r8", "r15", 4)      # younger free load
    b.addi("r9", "r15", 1)    # younger ALU op
    b.halt()
    cpu = CPUConfig(fu_counts=dict(CPUConfig().fu_counts, AGEN=1))
    pipe = _pipeline(b.build(), cpu)
    pipe.tick(0)
    pipe.tick(1)
    store, blocked, free, alu = list(pipe.ruu.window)[4:8]
    assert blocked.dyn.fwd == store.seq and free.dyn.fwd == -1
    pipe.tick(2)  # the pass in which the loads and the ALU op come due
    assert not store.issued and not blocked.issued and not free.issued
    assert alu.issued_at == 2
    assert pipe.ruu._waiting_loads == [blocked, free]
    _finish(pipe, 3)
    assert store.issued_at == 8
    assert blocked.issued_at == store.issued_at
    assert blocked.handle.forwarded
    assert free.issued_at == store.issued_at + 1


# ----------------------------------------------------------------------
# LSQ mechanics, as Pipeline.tick runs them: a load's forwarding store
# is named on its record and found in the RUU ring.
# ----------------------------------------------------------------------
class _HeldMemory(PerfectMemory):
    """Loads from ``held`` addresses stay pending until the test
    completes their handles; every load's issue cycle is recorded."""

    def __init__(self, held=()):
        super().__init__()
        self.held = set(held)
        self.issued = {}  # addr -> (cycle, handle)

    def load_issue(self, now, addr, size):
        if addr in self.held:
            handle = LoadHandle(addr, size, now)
        else:
            handle = super().load_issue(now, addr, size)
        self.issued[addr] = (now, handle)
        return handle


def _store_then_load(store, load, data_held=False, cpu=None):
    """A pipeline over: the store's data (a load of ``buf + 64``, held
    when ``data_held``), ``store(b, buf)``, then ``load(b, buf)``.
    Returns the pipeline, its memory, ``buf`` and, after the first
    tick, the store's and the load's RUU entries."""
    b = ProgramBuilder()
    buf = b.alloc_global_words("buf", 64)
    b.li("r15", buf)
    b.lw("r6", "r15", 64)
    store(b, buf)
    load(b, buf)
    b.halt()
    mem = _HeldMemory({buf + 64} if data_held else ())
    pipe = Pipeline(cpu or CPUConfig(), mem,
                    annotate(Interpreter(b.build()).trace()))
    pipe.tick(0)
    entries = pipe.ruu.window
    store_entry = next(e for e in entries if e.op_class == OpClass.STORE)
    load_entry = next(e for e in entries
                      if e.op_class == OpClass.LOAD and e.seq > 2)
    return pipe, mem, buf, store_entry, load_entry


def _finish(pipe, start, stop=500):
    for now in range(start, stop):
        pipe.tick(now)
        if pipe.done:
            return
    raise AssertionError("bounded program failed to finish")


def test_lsq_forwarding_from_issued_store():
    pipe, mem, buf, store, load = _store_then_load(
        lambda b, buf: b.sw("r6", "r15", 0),
        lambda b, buf: b.lw("r7", "r15", 0))
    assert load.dyn.fwd == store.seq
    _finish(pipe, 1)
    assert load.handle.forwarded
    assert load.result_time == max(store.issued_at, load.issued_at) + 1
    assert buf not in mem.issued
    assert pipe.lsq.forwards == 1


def test_lsq_blocks_on_unissued_same_address_store():
    pipe, mem, buf, store, load = _store_then_load(
        lambda b, buf: b.sw("r6", "r15", 0),
        lambda b, buf: b.lw("r7", "r15", 0), data_held=True)
    for now in range(1, 30):
        pipe.tick(now)
    assert not store.issued and not load.issued
    mem.issued[buf + 64][1].complete(30)
    _finish(pipe, 30)
    assert load.issued_at >= store.issued_at >= 30
    assert load.handle.forwarded and buf not in mem.issued


def test_lsq_different_address_does_not_forward():
    pipe, mem, buf, store, load = _store_then_load(
        lambda b, buf: b.sw("r6", "r15", 128),
        lambda b, buf: b.lw("r7", "r15", 0), data_held=True)
    assert load.dyn.fwd == -1
    for now in range(1, 30):
        pipe.tick(now)
    # The unissued store does not hold back a load of another word.
    assert not store.issued and load.issued
    assert mem.issued[buf][0] == load.issued_at
    mem.issued[buf + 64][1].complete(30)
    _finish(pipe, 30)
    assert pipe.lsq.forwards == 0


def test_lsq_partial_overlap_detected():
    pipe, mem, buf, store, load = _store_then_load(
        lambda b, buf: b.sd("f1", "r15", 0),
        lambda b, buf: b.lw("r7", "r15", 4))
    assert load.dyn.fwd == store.seq
    _finish(pipe, 1)
    assert load.handle.forwarded and buf + 4 not in mem.issued


def test_lsq_overflow_is_a_simulation_error():
    """The fetch stage never dispatches a memory instruction into a
    full queue; a queue found holding more than its capacity (dispatch
    that went around the gate) is a typed error, not a silent stall."""
    b = ProgramBuilder()
    buf = b.alloc_global_words("buf", 64)
    b.li("r15", buf)
    for i in range(8):
        b.lw(f"r{1 + i}", "r15", 4 * i)
    b.halt()
    mem = _HeldMemory({buf + 4 * i for i in range(8)})
    cpu = CPUConfig(ruu_entries=16, lsq_entries=4)
    pipe = Pipeline(cpu, mem, annotate(Interpreter(b.build()).trace()))
    pipe.tick(0)
    assert len(pipe.lsq) == pipe.lsq.capacity
    pipe.lsq.capacity = 2
    with pytest.raises(SimulationError, match="LSQ overflow"):
        pipe.tick(1)


# ----------------------------------------------------------------------
# FU pool.
# ----------------------------------------------------------------------
def test_fu_pool_limits_per_cycle_and_resets():
    """Three independent FMULTs ready together: the two FMULT units
    take two, and the next cycle's fresh slots take the third."""
    b = ProgramBuilder()
    for reg in ("f1", "f2", "f3"):
        b.fmul(reg, "f0", "f0")
    b.halt()
    pipe = _pipeline(b.build())
    pipe.tick(0)
    fmults = list(pipe.ruu.window)[:3]
    _finish(pipe, 1)
    assert CPUConfig().fu_counts["FMULT"] == 2
    assert [entry.issued_at for entry in fmults] == [1, 1, 2]


def test_fu_pool_latencies_match_config():
    cfg = CPUConfig()
    pool = FUPool(cfg)
    assert pool.latency_table[int(OpClass.IALU)] == 1
    assert pool.latency_table[int(OpClass.FDIV)] == cfg.fu_latencies["FDIV"]
    assert pool.latency_table[int(OpClass.LOAD)] == cfg.fu_latencies["AGEN"]


# ----------------------------------------------------------------------
# Whole-pipeline behaviour.
# ----------------------------------------------------------------------
def test_serial_chain_commits_in_order_with_low_ipc():
    stats = _run(_pipeline(_linear_program(64)))
    assert stats.committed == 66  # li + 64 addi + halt
    # A fully serial chain cannot exceed 1 IPC by much.
    assert stats.ipc <= 1.5


def test_independent_instructions_reach_high_ipc():
    stats = _run(_pipeline(_independent_program(256)))
    serial = _run(_pipeline(_linear_program(256)))
    assert stats.ipc > 2.0
    assert stats.ipc > serial.ipc


def test_issue_width_bounds_ipc():
    narrow = CPUConfig(fetch_width=1, issue_width=1, commit_width=1,
                       ruu_entries=32, lsq_entries=16)
    stats = _run(_pipeline(_independent_program(128), cpu=narrow))
    assert stats.ipc <= 1.0


def test_load_dependent_chain_waits_for_memory():
    class Slow(PerfectMemory):
        def load_issue(self, now, addr, size):
            handle = LoadHandle(addr, size, now)
            handle.complete(now + 50)
            return handle

    b = ProgramBuilder()
    base = b.alloc_global_words("p", 4, init=[0, 0, 0, 0])
    b.li("r1", base)
    b.lw("r2", "r1", 0)
    b.add("r3", "r2", "r1")
    b.halt()
    stats = _run(Pipeline(CPUConfig(), Slow(),
                          annotate(Interpreter(b.build()).trace())))
    assert stats.cycles >= 50


def test_store_then_load_forwards_quickly():
    b = ProgramBuilder()
    base = b.alloc_global_words("x", 2)
    b.li("r1", base)
    b.li("r2", 42)
    b.sw("r2", "r1", 0)
    b.lw("r3", "r1", 0)
    b.halt()

    class NeverLoad(PerfectMemory):
        def load_issue(self, now, addr, size):
            raise AssertionError("load should have been forwarded")

    stats = _run(Pipeline(CPUConfig(), NeverLoad(),
                          annotate(Interpreter(b.build()).trace())))
    assert stats.loads == 1


def test_pipeline_counts_loads_and_stores():
    b = ProgramBuilder()
    base = b.alloc_global_words("x", 8)
    b.li("r1", base)
    b.sw("r1", "r1", 0)
    b.lw("r2", "r1", 4)
    b.lw("r3", "r1", 0)
    b.halt()
    stats = _run(_pipeline(b.build()))
    assert stats.stores == 1
    assert stats.loads == 2


def test_load_drops_a_cached_blocker_whose_entry_was_recycled():
    """A load waits while the store it may not bypass is unissued.  Once
    that store has issued and committed, the load's ``fwd`` is older
    than the window head, so nothing holds the load back: it goes to
    memory on its next pass.

    One issue slot per cycle keeps the load from looking at the store
    between the store's issue and its commit: the store takes the slot
    at cycle 20, and at 21 an entry whose operand was ready at 20 leads
    the batch.  At 21 the store commits, and at 22 the load issues."""
    b = ProgramBuilder()
    buf = b.alloc_global_words("buf", 64)
    b.li("r15", buf)
    b.lw("r6", "r15", 8)      # the store's data: held until cycle 20
    b.sw("r6", "r15", 0)
    b.lw("r7", "r15", 0)      # the load: waits behind the store
    b.lw("r9", "r15", 12)     # held; its consumer leads the batch at 21
    b.add("r10", "r9", "r9")
    b.addi("r11", "r0", 1)    # fills the slot the li frees
    b.addi("r12", "r0", 2)
    b.halt()
    mem = _HeldMemory({buf + 8, buf + 12})
    cpu = CPUConfig(issue_width=1, ruu_entries=7, lsq_entries=4)
    pipe = Pipeline(cpu, mem, annotate(Interpreter(b.build()).trace()))
    pipe.tick(0)
    store = next(e for e in pipe.ruu.window if e.op_class == OpClass.STORE)
    load = next(e for e in pipe.ruu.window
                if e.op_class == OpClass.LOAD and e.dyn.addr == buf)
    store_seq = store.seq
    assert load.dyn.fwd == store_seq
    for now in range(1, 21):
        if now == 20:
            mem.issued[buf + 8][1].complete(20)
        pipe.tick(now)
    assert store.issued and not load.issued
    mem.issued[buf + 12][1].complete(20)
    pipe.tick(21)
    assert not load.issued  # the load did not look at the store
    assert pipe.ruu.window[0].seq > store_seq  # the store committed
    pipe.tick(22)
    assert load.issued and not load.handle.forwarded
    assert mem.issued[buf][0] == 22
    _finish(pipe, 23, 200)


@pytest.mark.parametrize("dense", [False, True])
def test_older_load_starved_by_early_entries_retries_next_cycle(dense):
    """Entries ready before ``now`` issue first, by ready time, so a
    young blocked load can take the only LOAD slot ahead of an older
    free one.  That pass issues nothing, but it was not in age order,
    so its waiting list is not inert: ``tick`` must still ask for the
    next cycle, where the older load issues, as under dense
    ticking."""
    b = ProgramBuilder()
    buf = b.alloc_global_words("buf", 64)
    b.init_word(buf, buf)
    b.init_word(buf + 4, buf)
    b.li("r15", buf)
    b.lw("r6", "r15", 8)    # the store's data: held until cycle 40
    b.lw("r1", "r15", 0)    # older load's base: held until cycle 10
    b.lw("r2", "r15", 4)    # younger load's base: held until cycle 10
    b.sw("r6", "r15", 64)
    b.lw("r7", "r1", 128)   # older load, free to go to memory
    b.lw("r8", "r2", 64)    # younger load, behind the unissued store
    b.halt()
    mem = _HeldMemory({buf, buf + 4, buf + 8})
    cpu = CPUConfig(fu_counts=dict(CPUConfig().fu_counts, AGEN=1))
    pipe = Pipeline(cpu, mem, annotate(Interpreter(b.build()).trace()))

    def deliver(now):
        """Complete held loads after cycle ``now``'s tick, as a peer's
        broadcast would; True when a load completed."""
        if now == 10:
            # Both bases are ready in the past by the next tick, the
            # younger load's first, so at 11 it leads the batch.
            mem.issued[buf + 4][1].complete(9)
            mem.issued[buf][1].complete(10)
            return True
        if now == 40:
            mem.issued[buf + 8][1].complete(41)
            return True
        return False

    wake = 0
    for now in range(200):
        if dense or wake <= now:
            wake = pipe.tick(now)
            if pipe.done:
                break
        if deliver(now):
            wake = now + 1  # a delivery wakes the pipeline
    assert pipe.done
    assert mem.issued[buf + 128][0] == 12
    assert buf + 64 not in mem.issued  # forwarded from the store


def test_run_raises_if_out_of_cycles():
    with pytest.raises(SimulationError, match="exceeded 3 cycles"):
        _run(_pipeline(_linear_program(64)), max_cycles=3)


def test_perfect_system_end_to_end():
    system = PerfectSystem()
    stats = system.run(_independent_program(64))
    assert stats.committed == 65
    assert 0 < stats.ipc <= system.cpu_config.issue_width
