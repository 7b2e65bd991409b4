"""Unit tests for the out-of-order pipeline against a perfect memory."""

import pytest

from repro.baseline.perfect import PerfectMemory, PerfectSystem
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


def _seqs(candidates):
    batch, aged = candidates
    return [entry.seq for entry in batch], aged


def test_ruu_dependency_wakeup():
    ruu = RUU(capacity=8)
    first, second = _annotated(_dyn(0, dest=1), _dyn(1, srcs=(1,)))
    assert second.deps == [0]
    producer = ruu.dispatch(first, now=0)
    consumer = ruu.dispatch(second, now=0)
    assert consumer.unresolved == 1
    assert _seqs(ruu.candidates(0)) == ([0], True)
    ruu.resolve(producer, result_time=5)
    assert consumer.unresolved == 0
    assert _seqs(ruu.candidates(4)) == ([], True)
    # Ready at 5, taken at 10: an entry ready before ``now`` is early.
    assert _seqs(ruu.candidates(10)) == ([1], False)
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
    assert not ruu.is_full()
    ruu.dispatch(second, 0)
    assert ruu.is_full()


def test_ruu_schedulable_is_oldest_first():
    ruu = RUU(capacity=8)
    for dyn in _annotated(_dyn(0), _dyn(1), _dyn(2)):
        ruu.dispatch(dyn, 0)
    assert _seqs(ruu.candidates(0)) == ([0, 1, 2], True)


def test_ruu_candidates_put_early_entries_first_then_merge_by_age():
    """Entries ready before ``now`` lead, by (ready time, age); the
    waiting list and the entries ready exactly at ``now`` follow,
    merged by age.  The waiting list is rebuilt in age order."""
    ruu = RUU(capacity=16)
    for seq in (1, 6):
        ruu.dispatch(_unwired(seq), now=4)
    ruu.wait(*ruu.candidates(4))  # the pass at 4 issued neither
    for seq, ready in ((2, 5), (4, 5), (5, 2), (7, 3)):
        ruu.dispatch(_unwired(seq), now=ready)
    batch, aged = ruu.candidates(5)
    assert _seqs((batch, aged)) == ([5, 7, 1, 2, 4, 6], False)
    ruu.wait([entry for entry in batch if entry.seq != 2], aged)
    assert _seqs(ruu.candidates(6)) == ([1, 4, 5, 6, 7], True)
    assert _seqs(ruu.candidates(7)) == ([], True)


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
    store_entry = next(e for e in entries if e.is_store)
    load_entry = next(e for e in entries if e.is_load and e.seq > 2)
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
    assert load.fwd == store.seq
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
    assert load.fwd == -1
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
    assert load.fwd == store.seq
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
    assert len(pipe.lsq) == 4 and pipe.lsq.is_full()
    pipe.lsq.capacity = 2
    with pytest.raises(SimulationError, match="LSQ overflow"):
        pipe.tick(1)


# ----------------------------------------------------------------------
# FU pool.
# ----------------------------------------------------------------------
def test_fu_pool_limits_per_cycle_and_resets():
    pool = FUPool(CPUConfig())
    fmult = int(OpClass.FMULT)
    assert pool.try_claim(0, fmult)
    assert pool.try_claim(0, fmult)
    assert not pool.try_claim(0, fmult)  # only 2 FMULT units
    assert pool.try_claim(1, fmult)  # fresh cycle


def test_fu_pool_latencies_match_config():
    cfg = CPUConfig()
    pool = FUPool(cfg)
    assert pool.latency(int(OpClass.IALU)) == 1
    assert pool.latency(int(OpClass.FDIV)) == cfg.fu_latencies["FDIV"]
    assert pool.latency(int(OpClass.LOAD)) == cfg.fu_latencies["AGEN"]


# ----------------------------------------------------------------------
# Whole-pipeline behaviour.
# ----------------------------------------------------------------------
def test_serial_chain_commits_in_order_with_low_ipc():
    pipeline = _pipeline(_linear_program(64))
    stats = pipeline.run(max_cycles=100_000)
    assert stats.committed == 66  # li + 64 addi + halt
    # A fully serial chain cannot exceed 1 IPC by much.
    assert stats.ipc <= 1.5


def test_independent_instructions_reach_high_ipc():
    stats = _pipeline(_independent_program(256)).run(100_000)
    serial = _pipeline(_linear_program(256)).run(100_000)
    assert stats.ipc > 2.0
    assert stats.ipc > serial.ipc


def test_issue_width_bounds_ipc():
    narrow = CPUConfig(fetch_width=1, issue_width=1, commit_width=1,
                       ruu_entries=32, lsq_entries=16)
    stats = _pipeline(_independent_program(128), cpu=narrow).run(100_000)
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
    stats = Pipeline(CPUConfig(), Slow(),
                     annotate(Interpreter(b.build()).trace())).run(100_000)
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

    stats = Pipeline(CPUConfig(), NeverLoad(),
                     annotate(Interpreter(b.build()).trace())).run(100_000)
    assert stats.loads == 1


def test_pipeline_counts_loads_and_stores():
    b = ProgramBuilder()
    base = b.alloc_global_words("x", 8)
    b.li("r1", base)
    b.sw("r1", "r1", 0)
    b.lw("r2", "r1", 4)
    b.lw("r3", "r1", 0)
    b.halt()
    stats = _pipeline(b.build()).run(100_000)
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
    store = next(e for e in pipe.ruu.window if e.is_store)
    load = next(e for e in pipe.ruu.window if e.is_load and e.addr == buf)
    store_seq = store.seq
    assert load.fwd == store_seq
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
    so its waiting list is not inert: ``next_event`` must still ask for
    the next cycle, where the older load issues, as under dense
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
            pipe.tick(now)
            if pipe.done:
                break
            wake = pipe.next_event(now)
        if deliver(now):
            wake = now + 1  # a delivery wakes the pipeline
    assert pipe.done
    assert mem.issued[buf + 128][0] == 12
    assert buf + 64 not in mem.issued  # forwarded from the store


def test_run_raises_if_out_of_cycles():
    with pytest.raises(SimulationError):
        _pipeline(_linear_program(64)).run(max_cycles=3)


def test_perfect_system_end_to_end():
    system = PerfectSystem()
    stats = system.run(_independent_program(64))
    assert stats.committed == 65
    assert 0 < stats.ipc <= system.cpu_config.issue_width
