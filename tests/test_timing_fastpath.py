"""The specialized timing loop: hot-path structures and skip bounds.

The per-cycle fast path leans on three precomputed/in-place structures
(the RUU ring, the LSQ occupancy counter, the FU-class arbitration
tables) and on the wake bound :meth:`Pipeline.tick` returns being an
*exact* quiescence bound — the per-pipeline cycle scheduler
(:func:`repro.core.system.drive`) simply does not tick a
pipeline before its own bound.  These tests pin each structure's
contract as the shipping ``Pipeline.tick`` keeps it (or, for the FU
tables, directly), then drive randomized programs to check the bound
and the stalls of skipped cycles against dense ticking, pin the fault
layer's retransmit-backoff arithmetic (a repaired delivery's arrival
comes back from ``broadcast`` itself, so the scheduler needs no bound
of its own for it), and finally pin whole results of the issue stage
on core shapes no other test covers.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from repro.baseline.perfect import PerfectMemory
from repro.core import DataScalarSystem
from repro.core.system import drive
from repro.cpu.func_units import FUPool
from repro.cpu.pipeline import Pipeline
from repro.cpu.ruu import RUUEntry
from repro.experiments.config import datascalar_config, timing_bus_config
from repro.faults.medium import FaultyMedium
from repro.faults.plan import BroadcastFault
from repro.interconnect.medium import make_medium
from repro.isa import Interpreter, ProgramBuilder
from repro.isa.opcodes import OpClass
from repro.memory import canonical_outcomes
from repro.params import BusConfig, CPUConfig, FaultConfig
from repro.runner import result_fingerprint
from repro.workloads import build_program


# ----------------------------------------------------------------------
# Helpers: random programs and machine shapes.
# ----------------------------------------------------------------------

_OPS = ["addi", "add", "mul", "lw", "sw"]


def _random_program(rng):
    builder = ProgramBuilder()
    base = builder.alloc_global("buf", 256)
    builder.li("r15", base)
    for _ in range(rng.randrange(3, 40)):
        op = rng.choice(_OPS)
        reg = f"r{rng.randrange(1, 13)}"
        if op == "addi":
            builder.addi(reg, reg, 1)
        elif op == "add":
            builder.add(reg, reg, "r15")
        elif op == "mul":
            builder.mul(reg, reg, reg)
        elif op == "lw":
            builder.lw(reg, "r15", rng.randrange(0, 32) * 4)
        else:
            builder.sw(reg, "r15", rng.randrange(0, 32) * 4)
    builder.halt()
    return builder.build()


def _random_cpu(rng):
    fu_counts = CPUConfig().fu_counts
    return CPUConfig(
        fetch_width=rng.choice([1, 2, 4]),
        issue_width=rng.choice([1, 2, 4]),
        commit_width=rng.choice([1, 2, 4]),
        ruu_entries=rng.choice([8, 16, 32]),
        lsq_entries=rng.choice([4, 8]),
        fu_counts={**fu_counts, "AGEN": rng.choice([1, 2, 8])},
    )


# ----------------------------------------------------------------------
# RUU ring and LSQ counter, as Pipeline.tick keeps them: dispatch reuses
# a committed entry's ring slot and counts memory instructions in, and
# commit counts them out.
# ----------------------------------------------------------------------

def _store_load_program(rounds=16):
    """Stores whose data waits on a multiply, each followed by a load of
    the same word and one of another word: stores sit unissued while
    younger loads look for them."""
    builder = ProgramBuilder()
    base = builder.alloc_global("buf", 256)
    builder.li("r15", base)
    builder.li("r1", 3)
    for i in range(rounds):
        builder.mul("r1", "r1", "r1")
        builder.sw("r1", "r15", 4 * (i % 4))
        builder.lw("r2", "r15", 4 * (i % 4))
        builder.lw("r3", "r15", 128 + 4 * (i % 8))
        builder.add("r4", "r2", "r3")
    builder.halt()
    return builder.build()


def _pipeline(program, cpu):
    return Pipeline(cpu, PerfectMemory(),
                    Interpreter(program).trace())


def _tick_to_done(pipeline, after_tick=None, max_cycles=50_000):
    """Dense-tick to completion, calling ``after_tick(pipeline)`` after
    every tick; returns the cycle count."""
    now = 0
    while not pipeline.done:
        assert now < max_cycles, "bounded program failed to finish"
        pipeline.tick(now)
        if after_tick is not None:
            after_tick(pipeline)
        now += 1
    return now


def _watch_dispatch(ruu, watch, recycle=True):
    """Call ``watch(entry, dyn, now, reused)`` after every dispatch that
    ``Pipeline.tick`` makes into ``ruu``, having first checked that
    every in-flight producer the record names is the entry in its ring
    slot.  With ``recycle`` False, the committed entry in the new seq's
    slot is dropped first, so every dispatch allocates."""
    dispatch = ruu.dispatch

    def watching(dyn, now):
        ring, mask = ruu.ring, ruu.mask
        head = ruu.window[0].seq if ruu.window else dyn.seq
        for producer in dyn.deps:
            if producer >= head:
                assert ring[producer & mask].seq == producer
        slot = dyn.seq & mask
        if not recycle:
            ring[slot] = None
        previous = ring[slot]
        assert previous is None or previous.seq < head
        entry = dispatch(dyn, now)
        watch(entry, dyn, now, entry is previous)
        return entry

    ruu.dispatch = watching


def _check_ring(pipeline):
    """Every in-flight entry sits in its seq's slot, the window fits the
    ring, and each unissued load's forwarding store, if in flight, is
    the store in its slot."""
    ruu = pipeline.ruu
    window = list(ruu.window)
    assert len(window) <= ruu.capacity <= len(ruu.ring)
    assert len(ruu.ring) & (len(ruu.ring) - 1) == 0
    for offset, entry in enumerate(window):
        assert entry.seq == window[0].seq + offset
        assert ruu.ring[entry.seq & ruu.mask] is entry
    for load in window:
        fwd = load.dyn.fwd
        if load.op_class == OpClass.LOAD and not load.issued \
                and fwd >= window[0].seq:
            store = ruu.ring[fwd & ruu.mask]
            assert store.op_class == OpClass.STORE and store.seq == fwd


def _youngest_overlapping_store(window, load):
    """The deleted ``LSQ.forwarding_store`` scan: the youngest in-flight
    store older than ``load`` that overlaps any of its bytes."""
    want = load.dyn
    for entry in reversed(window):
        have = entry.dyn
        if entry.op_class == OpClass.STORE and entry.seq < load.seq \
                and have.addr < want.addr + want.size \
                and want.addr < have.addr + have.size:
            return entry
    return None


def _check_store_counter(pipeline):
    """The LSQ occupancy counter and each load's forwarding store
    against a scan of the window."""
    ruu, lsq = pipeline.ruu, pipeline.lsq
    window = list(ruu.window)
    assert lsq.occupancy == sum(1 for entry in window
                                if entry.op_class in (OpClass.LOAD,
                                                      OpClass.STORE))
    assert lsq.occupancy <= lsq.capacity
    for probe in window:
        if probe.op_class == OpClass.LOAD:
            store = _youngest_overlapping_store(window, probe)
            if store is None:
                assert probe.dyn.fwd < window[0].seq
            else:
                assert probe.dyn.fwd == store.seq


def test_ruu_free_list_recycles_committed_entries():
    """Dispatch reuses the committed entry in the new seq's ring slot:
    a reused entry comes back out of dispatch indistinguishable from a
    fresh one, apart from the dependence wiring (checked below), and a
    run never holds more entry objects than the ring has slots."""
    cpu = CPUConfig(ruu_entries=8, lsq_entries=4)
    pipeline = _pipeline(_store_load_program(), cpu)
    objects = {}
    recycled = []

    def watch(entry, dyn, now, reused):
        objects[id(entry)] = entry
        if not reused:
            return
        recycled.append(entry)
        fresh = RUUEntry(dyn, now)
        for slot in RUUEntry.__slots__:
            if slot not in ("operand_time", "unresolved"):
                assert getattr(entry, slot) == getattr(fresh, slot), slot

    _watch_dispatch(pipeline.ruu, watch)
    _tick_to_done(pipeline)
    assert len(pipeline.ruu.ring) == cpu.ruu_entries
    assert len(objects) <= len(pipeline.ruu.ring)
    assert len(recycled) == pipeline.stats.committed - len(objects)


def _timeline(recycle):
    """Per instruction: dispatch cycle, operand time and unresolved
    producers at dispatch, then issue and result cycles."""
    cpu = CPUConfig(issue_width=2, ruu_entries=8, lsq_entries=4)
    pipeline = _pipeline(_store_load_program(), cpu)
    timeline = {}

    def watch(entry, dyn, now, reused):
        timeline[entry.seq] = [now, entry.operand_time, entry.unresolved,
                               None, None]

    def after_tick(pipeline):
        _check_ring(pipeline)
        for entry in pipeline.ruu.window:
            timeline[entry.seq][3:] = [entry.issued_at, entry.result_time]

    _watch_dispatch(pipeline.ruu, watch, recycle)
    cycles = _tick_to_done(pipeline, after_tick)
    return cycles, timeline


def test_ruu_free_list_reuse_preserves_dependence_wiring():
    """An entry's first life must not leak into its second, and a
    reused slot is never read as a live producer or forwarding store:
    every instruction's dependence wiring and issue and result cycles
    match a run whose ring never reuses an entry."""
    cycles, timeline = _timeline(recycle=True)
    assert any(unresolved for _, _, unresolved, _, _ in timeline.values())
    assert (cycles, timeline) == _timeline(recycle=False)


def test_ruu_free_list_is_bounded_by_capacity():
    """The ring has the fewest power-of-two slots that hold the window,
    every in-flight entry sits in its seq's slot, and windows that wrap
    the ring many times reuse its entries."""
    for ruu_entries in (1, 2, 3, 4, 12, 16):
        cpu = CPUConfig(ruu_entries=ruu_entries,
                        lsq_entries=max(1, ruu_entries // 2))
        pipeline = _pipeline(_store_load_program(), cpu)
        objects = set()
        _watch_dispatch(pipeline.ruu,
                        lambda entry, *_: objects.add(id(entry)))
        _tick_to_done(pipeline, _check_ring)
        size = len(pipeline.ruu.ring)
        assert size >= ruu_entries > size // 2
        assert len(objects) <= size < pipeline.stats.committed


def test_lsq_counter_matches_brute_force_scan_under_random_traffic():
    def after_tick(pipeline):
        _check_ring(pipeline)
        _check_store_counter(pipeline)

    for seed in range(120):
        rng = random.Random(seed)
        program = _random_program(rng)
        _tick_to_done(_pipeline(program, _random_cpu(rng)), after_tick)


# ----------------------------------------------------------------------
# FU arbitration tables.
# ----------------------------------------------------------------------

def test_fu_tables_mirror_config():
    config = CPUConfig()
    fus = FUPool(config)
    for op_class in OpClass:
        index = int(op_class)
        assert fus.latency_table[index] == config.fu_latencies[
            op_class.fu_name]
        count = config.fu_counts.get(op_class.fu_name)
        if count is not None:
            assert fus.limit_table[index] == count


def test_fu_limits_bind_per_class_per_cycle():
    """One FMULT more than the FMULT units, then an ALU op, all ready
    together: the units take as many FMULTs as they number, the ALU op
    issues beside them, and the next cycle's fresh slots take the last
    FMULT."""
    config = CPUConfig()
    limit = FUPool(config).limit_table[int(OpClass.FMULT)]
    assert limit == config.fu_counts["FMULT"] < config.issue_width - 1
    builder = ProgramBuilder()
    for i in range(limit + 1):
        builder.fmul(f"f{1 + i}", "f0", "f0")
    builder.addi("r1", "r0", 1)
    builder.halt()
    pipeline = _pipeline(builder.build(), config)
    pipeline.tick(0)
    *fmults, alu = list(pipeline.ruu.window)[:limit + 2]
    for now in range(1, 10):
        pipeline.tick(now)
    assert [entry.issued_at for entry in fmults] == [1] * limit + [2]
    assert alu.issued_at == 1


# ----------------------------------------------------------------------
# tick's wake bound vs dense ticking (the deep-skip quiescence bound).
# ----------------------------------------------------------------------

def _observable(pipeline):
    """Everything ``tick``'s bound promises stays frozen before it:
    commit-side counters, the window population, and issue activity
    (entries only leave the window at commit, so the per-entry issued
    flags are a faithful issue detector)."""
    stats = pipeline.stats
    return (
        stats.committed, stats.loads, stats.stores,
        len(pipeline.ruu.window),
        sum(1 for entry in pipeline.ruu.window if entry.issued),
    )


def _drive_checking_bounds(pipeline, max_cycles=50_000):
    """Dense-tick to completion, verifying after every tick that the
    cycles strictly before the bound it returned are observationally
    idle (exactly what the skip scheduler assumes when it jumps)."""
    now = 0
    while not pipeline.done:
        assert now < max_cycles, "bounded program failed to finish"
        bound = pipeline.tick(now)
        if pipeline.done:
            return now + 1
        stop = min(bound, max_cycles)
        if stop > now + 1:
            frozen = _observable(pipeline)
            for idle in range(now + 1, stop):
                pipeline.tick(idle)
                assert _observable(pipeline) == frozen, (
                    f"activity at cycle {idle}, inside the idle span "
                    f"promised by tick({now}) == {bound}"
                )
                if pipeline.done:
                    return idle + 1
            now = stop
        else:
            now += 1
    return now


@pytest.mark.parametrize("seed_block", range(4))
def test_tick_bound_matches_dense_ticking(seed_block):
    """200 random (program, machine shape, load latency) triples: dense
    ticking must be observationally idle strictly before every bound
    ``tick`` returns, and neither ticking the idle cycles anyway nor
    skipping them through :func:`drive` (whose next tick counts their
    stalls) may change one final number vs a pure dense run."""
    for seed in range(seed_block * 50, seed_block * 50 + 50):
        rng = random.Random(seed)
        program = _random_program(rng)
        cpu = _random_cpu(rng)
        # Slower loads keep windows and LSQs full across skipped cycles.
        latency = rng.choice([1, 4, 16])

        checked = Pipeline(cpu, PerfectMemory(latency),
                           Interpreter(program).trace())
        cycles = _drive_checking_bounds(checked)

        driven = Pipeline(cpu, PerfectMemory(latency),
                          Interpreter(program).trace())
        driven_cycles = drive([driven], 50_000)

        dense = Pipeline(cpu, PerfectMemory(latency),
                         Interpreter(program).trace())
        now = 0
        while not dense.done:
            dense.tick(now)
            now += 1
        assert cycles == now, f"seed {seed}: cycle count diverged"
        assert driven_cycles == now, f"seed {seed}: drive's cycles diverged"
        for slot in dense.stats.__slots__:
            assert getattr(checked.stats, slot) == getattr(
                dense.stats, slot), f"seed {seed}: stats.{slot} diverged"
            assert getattr(driven.stats, slot) == getattr(
                dense.stats, slot), f"seed {seed}: drive's {slot} diverged"


# ----------------------------------------------------------------------
# Fault recovery (BSHR retransmit backoff) is eager and exact.
# ----------------------------------------------------------------------

class _ScriptedPlan:
    """Deterministic replacement for the seeded FaultPlan."""

    def __init__(self, faults, outcomes=()):
        self._faults = list(faults)
        self._outcomes = list(outcomes)

    def for_broadcast(self, src):
        if self._faults:
            return self._faults.pop(0)
        return BroadcastFault()

    def retransmit_outcome(self):
        if self._outcomes:
            return self._outcomes.pop(0)
        return (False, False)


def _faulty_bus(config, num_nodes=2):
    bus = BusConfig()
    return FaultyMedium(make_medium("bus", bus, num_nodes), config,
                        num_nodes, bus), bus


def test_recovered_arrival_is_materialized_eagerly_and_exactly():
    """A dropped delivery's repaired arrival must come back from
    ``broadcast`` itself (absolute cycle, timeout + one request/data
    round trip) — not as a deferred event the skip scheduler would have
    to poll for."""
    config = FaultConfig(seed=0, receiver_drop_prob=1.0)
    medium, bus = _faulty_bus(config)
    medium.plan = _ScriptedPlan([BroadcastFault(dropped=frozenset({1}))])

    clean = make_medium("bus", BusConfig(), 2)
    due = clean.broadcast(0, 0, 0x1000, 64)[1]

    request = bus.interface_latency + bus.transfer_cycles(0)
    data = bus.interface_latency + bus.transfer_cycles(64)
    expected = due + config.bshr_timeout + request + data

    arrivals = medium.broadcast(0, 0, 0x1000, 64)
    assert arrivals[1] == expected
    assert medium.recovery_stats.timeouts == 1
    assert medium.recovery_stats.retransmits == 1
    assert medium.recovery_stats.recovered == 1


def test_retransmit_backoff_arithmetic_is_exact():
    """Failed retransmit attempts pay timeout + exponential backoff;
    the final arrival must land on exactly the closed-form cycle."""
    config = FaultConfig(seed=0, receiver_drop_prob=1.0)
    medium, bus = _faulty_bus(config)
    medium.plan = _ScriptedPlan(
        [BroadcastFault(dropped=frozenset({1}))],
        outcomes=[(True, False), (True, False), (False, False)],
    )

    clean = make_medium("bus", BusConfig(), 2)
    due = clean.broadcast(0, 0, 0x2000, 64)[1]
    request = bus.interface_latency + bus.transfer_cycles(0)
    data = bus.interface_latency + bus.transfer_cycles(64)

    when = due + config.bshr_timeout
    for attempt in range(2):  # two dropped attempts back off
        arrived = when + request + data
        when = (arrived + config.bshr_timeout
                + config.retry_backoff * config.backoff_factor ** attempt)
    expected = when + request + data

    arrivals = medium.broadcast(0, 0, 0x2000, 64)
    assert arrivals[1] == expected
    assert medium.recovery_stats.retransmits == 3
    assert medium.recovery_stats.recovered == 1
    assert medium.recovery_stats.retry_high_water == 3


def test_nacked_corruption_skips_the_timeout():
    """ECC failure is detected at arrival: the NACK leaves immediately,
    so the repaired arrival must NOT be charged the sequence-gap bound."""
    config = FaultConfig(seed=0, corrupt_prob=1.0)
    medium, bus = _faulty_bus(config)
    medium.plan = _ScriptedPlan([BroadcastFault(corrupted=frozenset({1}))])

    clean = make_medium("bus", BusConfig(), 2)
    due = clean.broadcast(0, 0, 0x3000, 64)[1]
    request = bus.interface_latency + bus.transfer_cycles(0)
    data = bus.interface_latency + bus.transfer_cycles(64)

    arrivals = medium.broadcast(0, 0, 0x3000, 64)
    assert arrivals[1] == due + request + data
    assert medium.recovery_stats.nacks == 1
    assert medium.recovery_stats.timeouts == 0


def test_fault_recovery_is_invisible_to_idle_skip():
    """Regression for the skip schedulers crossing recovery windows: a
    loss-heavy run on the slowest bus (long idle stretches, so skipping
    actually matters) must be bit-identical between fast-forward and
    dense ticking, with real recoveries in play."""
    calls = []

    class _DenseSystem(DataScalarSystem):
        """One interpreter per node, each with its own canonical caches,
        in place of the shared fan-out."""

        def _make_traces(self, program, limit):
            calls.append(limit)
            node = self.config.node
            return [canonical_outcomes(
                        Interpreter(program).trace(limit=limit),
                        node.icache, node.dcache)
                    for _ in range(self.config.num_nodes)]

    program = build_program("compress")
    faults = FaultConfig(seed=11, receiver_drop_prob=3e-2, corrupt_prob=1e-2)
    config = dataclasses.replace(
        datascalar_config(
            num_nodes=4,
            bus=timing_bus_config(cycles_per_bus_cycle=16)),
        faults=faults)
    assert config.fast_forward

    fast = DataScalarSystem(config).run(program, limit=1_500)
    dense = _DenseSystem(
        dataclasses.replace(config, fast_forward=False)).run(
            program, limit=1_500)

    assert calls == [1_500], "the per-node reference did not run"
    assert fast.cycles == dense.cycles
    assert fast.instructions == dense.instructions
    assert fast.bus_transactions == dense.bus_transactions
    assert fast.extra["faults"] == dense.extra["faults"]
    assert fast.extra["faults"]["recovery"]["recovered"] > 0


# ----------------------------------------------------------------------
# Golden digests: the issue stage on core shapes pinned nowhere else.
# ----------------------------------------------------------------------

GOLDEN_LIMIT = 4_000

#: sha256 of each run's ``result_fingerprint`` (sorted-key compact
#: JSON, as ``benchmarks/perf`` digests an op), keyed by (kernel, core,
#: nodes, cycles per bus cycle).  Beside the default core, a narrow
#: core whose issue width and window overflow, and cores with one and
#: two AGEN units, whose LOAD slots run out before their issue width.
GOLDEN = {
    ("applu", "default", 2, 1):
        "85b7b01c28d40c8ad63ebc96d8c22f1f97e4fb3cd56b1113395412d93bf15112",
    ("applu", "default", 4, 16):
        "e7fc91d393bf17ab5441925f4596e34e8fdac4b033c3767b1bdbb36e61761e7e",
    ("applu", "agen1", 4, 16):
        "898dc9c702ba2f31c9a16e84359c8e9b44c44206ea704cdd86e0c0cfdc90b9df",
    ("applu", "agen2", 2, 1):
        "d7bf60f715ea5e0430d5a95f351114be2f49bbc3ef1fc2341ac9445d5e5f04e0",
    ("applu", "narrow", 2, 1):
        "eabc22cee3efeee49488a84cffb745669415a784ca651e3d22f50eb820d3f311",
    ("applu", "narrow", 4, 16):
        "f788595abe9f32bbfc496b0700bee2da4046e81502e0649d10544584880d4655",
    ("mgrid", "default", 2, 1):
        "531428e5a573379604f7a4d76d2e4db43dc9f64fc41e0553f59c53974343320d",
    ("mgrid", "default", 4, 16):
        "f907b93dc60c4df77b8bc2cbcc6748125fd6027e04b9d94b312dfde4730a5935",
    ("mgrid", "narrow", 2, 1):
        "6d96bcbc8f2f29d41e23264301c30b6844c1f8ee7644087ed9586a402bea1d8e",
    ("mgrid", "narrow", 4, 16):
        "ab6517a8cf8b8024ef98ab28f63c9cce5e1dbff349ea89b66e101d75fc1fbd34",
}


def _golden_config(core, num_nodes, cycles_per_bus_cycle):
    config = datascalar_config(
        num_nodes,
        bus=timing_bus_config(cycles_per_bus_cycle=cycles_per_bus_cycle))
    if core == "default":
        return config
    node = config.node
    if core.startswith("agen"):
        fu_counts = {**node.cpu.fu_counts, "AGEN": int(core[4:])}
        cpu = dataclasses.replace(node.cpu, fu_counts=fu_counts)
    else:
        assert core == "narrow"
        cpu = dataclasses.replace(node.cpu, fetch_width=2, issue_width=2,
                                  commit_width=2, ruu_entries=32,
                                  lsq_entries=16)
    return dataclasses.replace(config,
                               node=dataclasses.replace(node, cpu=cpu))


@pytest.mark.parametrize("key", sorted(GOLDEN),
                         ids=lambda key: "{}-{}-{}n-bus{}x".format(*key))
def test_issue_stage_matches_golden_digest(key):
    kernel, core, num_nodes, cycles_per_bus_cycle = key
    result = DataScalarSystem(
        _golden_config(core, num_nodes, cycles_per_bus_cycle)).run(
            build_program(kernel), limit=GOLDEN_LIMIT)
    text = json.dumps(result_fingerprint(result), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[key]
