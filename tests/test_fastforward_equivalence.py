"""Fast-forward must be invisible: bit-identical results vs. dense ticking.

The scheduler in :mod:`repro.core.system` skips cycle ranges that are
provably idle for every node and shares one functional interpreter
across all nodes (:mod:`repro.isa.fanout`).  Neither is allowed to
change a single reported number: these tests run the same workload with
``fast_forward`` on and off — the off runs also forced back onto
per-node interpreters, reproducing the original dense scheduler exactly
— across every interconnect medium and node count, and compare full
result snapshots.  The same holds for the generated-code front end
against the interpreter.  Finally, the scheduler's work on five
benchmark-shaped runs (calls of ``Pipeline.tick``, ``next_event`` and
``note_skipped``) is pinned exactly.
"""

import dataclasses

import pytest

from repro.core import DataScalarSystem
from repro.experiments.config import datascalar_config
from repro.isa.codegen import engine as codegen_engine
from repro.isa.codegen import supports
from repro.isa.interpreter import Interpreter
from repro.isa.trace import annotate
from repro.memory import canonical_outcomes
from repro.workloads import build_program

WORKLOADS = ["compress", "mgrid", "applu"]
MEDIA = ["bus", "ring", "optical"]
NODE_COUNTS = [1, 2, 4]
LIMIT = 2_500


class _DenseSystem(DataScalarSystem):
    """The pre-optimization scheduler: one interpreter per node, each
    with its own pair of canonical caches (this ``_make_traces``
    override replaces the shared, generated-code fan-out and its one
    ``canonical_outcomes`` stage) and, via ``fast_forward=False`` in its
    config, dense per-cycle ticking.  ``calls`` counts the override's
    runs, so a test can assert that its reference really was the
    per-node one."""

    calls = 0

    def _make_traces(self, program, limit):
        self.calls += 1
        node = self.config.node
        return [canonical_outcomes(
                    annotate(Interpreter(program).trace(limit=limit)),
                    node.icache, node.dcache)
                for _ in range(self.config.num_nodes)]


def _dense(config, program):
    """The per-node, densely ticked reference run of ``program``."""
    system = _DenseSystem(dataclasses.replace(config, fast_forward=False))
    result = system.run(program, limit=LIMIT)
    assert system.calls == 1, "the per-node reference did not run"
    return result


def _snapshot(result):
    """Every externally-visible number in a :class:`DataScalarResult`."""
    nodes = []
    for node in result.nodes:
        stats = node.pipeline
        pipeline = {
            slot: getattr(stats, slot) for slot in stats.__slots__
        }
        node_fields = dataclasses.asdict(node)
        node_fields["pipeline"] = pipeline
        nodes.append(node_fields)
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "bus_transactions": result.bus_transactions,
        "bus_payload_bytes": result.bus_payload_bytes,
        "bus_utilization": result.bus_utilization,
        "nodes": nodes,
    }


def _config(num_nodes, interconnect):
    return dataclasses.replace(
        datascalar_config(num_nodes=num_nodes), interconnect=interconnect)


@pytest.mark.parametrize("interconnect", MEDIA)
@pytest.mark.parametrize("num_nodes", NODE_COUNTS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_fast_forward_matches_dense(workload, num_nodes, interconnect):
    program = build_program(workload)

    fast_cfg = _config(num_nodes, interconnect)
    assert fast_cfg.fast_forward  # the default path under test
    fast = DataScalarSystem(fast_cfg).run(program, limit=LIMIT)
    dense = _dense(fast_cfg, program)

    assert _snapshot(fast) == _snapshot(dense)


def test_observer_forces_dense_and_sees_every_cycle():
    """An installed observer disables skipping: it must be called for
    cycles 0..N-1 with no gaps, and the result still matches."""
    program = build_program("compress")
    config = _config(2, "bus")
    seen = []
    observed = DataScalarSystem(config).run(
        program, limit=LIMIT,
        observer=lambda cycle, pipelines, nodes, medium: seen.append(cycle))
    assert seen == list(range(observed.cycles))
    plain = DataScalarSystem(config).run(program, limit=LIMIT)
    assert _snapshot(observed) == _snapshot(plain)


@pytest.mark.parametrize("interconnect", ["bus", "ring"])
def test_fast_forward_matches_dense_under_faults(interconnect):
    """The faulty medium adds pending recovery timers and BSHR wait
    deadlines; ``next_event`` must fold them in so skipping stays
    invisible — including the seeded fault schedule itself."""
    from repro.params import FaultConfig

    program = build_program("compress")
    faults = FaultConfig(seed=17, receiver_drop_prob=1e-2,
                         corrupt_prob=5e-3, jitter_prob=2e-2,
                         stall_prob=5e-3)
    fast_cfg = dataclasses.replace(_config(4, interconnect), faults=faults)
    assert fast_cfg.fast_forward
    fast = DataScalarSystem(fast_cfg).run(program, limit=LIMIT)
    dense = _dense(fast_cfg, program)

    assert _snapshot(fast) == _snapshot(dense)
    assert fast.extra["faults"] == dense.extra["faults"]
    assert fast.extra["faults"]["recovery"]["recovered"] > 0


@pytest.mark.parametrize("num_nodes", [2, 4])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_is_bit_identical(workload, num_nodes):
    """Tracing is purely observational: a fully-traced fast-forwarded
    run must report exactly the numbers of the untraced run (and of the
    dense untraced run, by transitivity with the tests above)."""
    from repro.obs import EventTracer

    program = build_program(workload)
    config = _config(num_nodes, "bus")
    plain = DataScalarSystem(config).run(program, limit=LIMIT)
    traced = DataScalarSystem(config).run(program, limit=LIMIT,
                                          tracer=EventTracer())
    assert _snapshot(traced) == _snapshot(plain)


def test_tracing_is_bit_identical_under_faults():
    """The faulty row: tracing must not perturb the seeded fault
    schedule, the recovery ledger, or the cycle count."""
    from repro.obs import EventKind, EventTracer
    from repro.params import FaultConfig

    program = build_program("compress")
    faults = FaultConfig(seed=17, receiver_drop_prob=1e-2,
                         corrupt_prob=5e-3, jitter_prob=2e-2,
                         stall_prob=5e-3)
    config = dataclasses.replace(_config(4, "bus"), faults=faults)
    plain = DataScalarSystem(config).run(program, limit=LIMIT)
    tracer = EventTracer()
    traced = DataScalarSystem(config).run(program, limit=LIMIT,
                                          tracer=tracer)
    assert _snapshot(traced) == _snapshot(plain)
    assert traced.extra["faults"] == plain.extra["faults"]
    injected = plain.extra["faults"]["injected"]["injected"]
    recover_events = tracer.counts.get(EventKind.FAULT_RECOVER, 0)
    assert recover_events == injected > 0


def test_fast_forward_flag_disables_skipping():
    """``fast_forward=False`` alone (shared fan-out still active) must
    also be bit-identical — the two optimizations are independent."""
    program = build_program("mgrid")
    config = _config(4, "bus")
    fast = DataScalarSystem(config).run(program, limit=LIMIT)
    dense = DataScalarSystem(
        dataclasses.replace(config, fast_forward=False)).run(
            program, limit=LIMIT)
    assert _snapshot(fast) == _snapshot(dense)


# ----------------------------------------------------------------------
# The codegen rows: the generated-code front end (repro.isa.codegen),
# which every run of these workloads uses, must be exactly as invisible
# as fast-forward — against the interpreter, the dense scheduler,
# faults, and tracing.  The interpreter-fed side is forced by making
# ``supports`` reject every program.
# ----------------------------------------------------------------------
def _generated(program, config, **kwargs):
    assert supports(program)  # the default front end is generated code
    return DataScalarSystem(config).run(program, limit=LIMIT, **kwargs)


def _interpreted(monkeypatch, program, config):
    with monkeypatch.context() as patch:
        patch.setattr(codegen_engine, "supports", lambda program: False)
        return DataScalarSystem(config).run(program, limit=LIMIT)


@pytest.mark.parametrize("num_nodes", NODE_COUNTS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_codegen_matches_interpreter(workload, num_nodes, monkeypatch):
    """Same fast-forwarded system, only the front end differs."""
    program = build_program(workload)
    config = _config(num_nodes, "bus")
    generated = _generated(program, config)
    interpreted = _interpreted(monkeypatch, program, config)
    assert _snapshot(generated) == _snapshot(interpreted)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_codegen_matches_dense(workload):
    """codegen + fast-forward vs the original dense per-node
    interpreters: the two optimization layers compose invisibly."""
    program = build_program(workload)
    config = _config(2, "bus")
    generated = _generated(program, config)
    dense = _dense(config, program)
    assert _snapshot(generated) == _snapshot(dense)


def test_codegen_matches_interpreter_under_faults(monkeypatch):
    """The faulty row: the front end must not perturb the seeded fault
    schedule or the recovery ledger."""
    from repro.params import FaultConfig

    program = build_program("compress")
    faults = FaultConfig(seed=17, receiver_drop_prob=1e-2,
                         corrupt_prob=5e-3, jitter_prob=2e-2,
                         stall_prob=5e-3)
    config = dataclasses.replace(_config(4, "bus"), faults=faults)
    generated = _generated(program, config)
    interpreted = _interpreted(monkeypatch, program, config)
    assert _snapshot(generated) == _snapshot(interpreted)
    assert generated.extra["faults"] == interpreted.extra["faults"]
    assert generated.extra["faults"]["recovery"]["recovered"] > 0


def test_codegen_tracing_is_bit_identical(monkeypatch):
    """The traced row: tracing a codegen-fed run reports exactly the
    untraced interpreter-fed numbers."""
    from repro.obs import EventTracer

    program = build_program("mgrid")
    config = _config(2, "bus")
    traced = _generated(program, config, tracer=EventTracer())
    plain = _interpreted(monkeypatch, program, config)
    assert _snapshot(traced) == _snapshot(plain)


# ----------------------------------------------------------------------
# The driver rows: every system runs through the one cycle scheduler
# (repro.core.system.drive).  The single-pipeline systems must match a
# dense tick-every-cycle loop, fault mode and tracing must not cost a
# single extra tick, and every system must surface a too-small cycle
# budget as a typed error.
# ----------------------------------------------------------------------
from repro.baseline import perfect as _perfect_module
from repro.baseline import traditional as _traditional_module
from repro.cpu.pipeline import Pipeline
from repro.errors import SimulationError


def _dense_drive(pipelines, max_cycles, **_):
    """The reference scheduler: tick the one pipeline every cycle."""
    (pipeline,) = pipelines
    cycle = 0
    while not pipeline.done:
        assert cycle < max_cycles
        pipeline.tick(cycle)
        cycle += 1
    return cycle


def _run_single_pipeline_systems(program):
    from repro.baseline.perfect import PerfectSystem
    from repro.baseline.traditional import TraditionalSystem
    from repro.core.hybrid import HybridSystem
    from repro.experiments.config import traditional_config
    from repro.runner.digest import result_fingerprint

    return result_fingerprint({
        "traditional": TraditionalSystem(traditional_config(denom=2)).run(
            program, limit=LIMIT),
        "perfect": PerfectSystem().run(program, limit=LIMIT),
        "private": HybridSystem(_config(2, "bus"))._run_private(program,
                                                                LIMIT),
    })


@pytest.mark.parametrize("workload", WORKLOADS)
def test_single_pipeline_systems_match_dense_loop(workload, monkeypatch):
    program = build_program(workload)
    driven = _run_single_pipeline_systems(program)
    for module in (_traditional_module, _perfect_module):
        monkeypatch.setattr(module, "drive", _dense_drive)
    dense = _run_single_pipeline_systems(program)
    assert driven == dense


def _count_ticks(monkeypatch, run):
    """``run()`` with the scheduler's work counted: calls of
    ``Pipeline.tick``, ``Pipeline.next_event`` and
    ``Pipeline.note_skipped``.  Returns ``(counts, result)``."""
    counts = dict.fromkeys(("tick", "next_event", "note_skipped"), 0)

    def counting(name):
        method = getattr(Pipeline, name)

        def counted(self, *args):
            counts[name] += 1
            return method(self, *args)

        return counted

    with monkeypatch.context() as patch:
        for name in counts:
            patch.setattr(Pipeline, name, counting(name))
        result = run()
    return counts, result


def test_faults_and_tracing_skip_like_a_plain_run(monkeypatch):
    """Fault mode (with nothing to inject) and an event tracer only fold
    extra bounds into the one driver: each run ticks exactly as often as
    the plain run, with identical results."""
    from repro.obs import EventTracer
    from repro.params import FaultConfig

    program = build_program("compress")
    config = _config(4, "bus")
    silent = dataclasses.replace(config, faults=FaultConfig(seed=3))
    assert not silent.faults.injects_anything
    plain_counts, plain = _count_ticks(
        monkeypatch,
        lambda: DataScalarSystem(config).run(program, limit=LIMIT))
    fault_counts, faulted = _count_ticks(
        monkeypatch,
        lambda: DataScalarSystem(silent).run(program, limit=LIMIT))
    traced_counts, traced = _count_ticks(
        monkeypatch,
        lambda: DataScalarSystem(config).run(program, limit=LIMIT,
                                             tracer=EventTracer()))
    assert fault_counts == plain_counts
    assert traced_counts == plain_counts
    # Skipping is real: far fewer ticks than node-cycles.
    assert plain_counts["tick"] < 4 * plain.cycles
    assert _snapshot(faulted) == _snapshot(plain)
    assert _snapshot(traced) == _snapshot(plain)


# The scheduler's exact work on five runs shaped like the workloads of
# benchmarks/perf (membound, compute, issue-churn, faulty) plus a
# traditional baseline, at limit 16,000: (cycles, tick, next_event,
# note_skipped).  The counts are exact for a given input on any host,
# so a change that makes the scheduler tick more (or skip less) fails
# here instead of in a noisy timing floor.  A change that alters them
# on purpose re-records them at its parent and says so.
EXACT_LIMIT = 16_000
EXACT_FAULTS = {"drop_prob": 0.02, "receiver_drop_prob": 0.02,
                "corrupt_prob": 0.01, "jitter_prob": 0.05}
EXACT_COUNTS = {
    "membound": (139_432, 35_005, 35_001, 7_579),
    "compute": (2_801, 5_194, 5_192, 171),
    "issue-churn": (67_150, 46_091, 46_087, 5_280),
    "faulty": (15_695, 26_796, 26_792, 3_625),
    "traditional": (55_328, 8_191, 8_190, 1_628),
}


def _exact_run(name):
    from repro.baseline.traditional import TraditionalSystem
    from repro.experiments.config import (timing_bus_config,
                                          traditional_config)
    from repro.params import FaultConfig

    def machine(num_nodes, bus_divisor, **changes):
        config = datascalar_config(num_nodes, bus=timing_bus_config(
            cycles_per_bus_cycle=bus_divisor))
        return DataScalarSystem(dataclasses.replace(config, **changes))

    kernel, system = {
        "membound": ("compress", lambda: machine(4, 16)),
        "compute": ("mgrid", lambda: machine(2, 1)),
        "issue-churn": ("applu", lambda: machine(4, 16)),
        "faulty": ("compress", lambda: machine(
            4, 4, interconnect="ring",
            faults=FaultConfig(seed=0, **EXACT_FAULTS))),
        "traditional": ("compress",
                        lambda: TraditionalSystem(traditional_config(4))),
    }[name]
    program = build_program(kernel)
    return lambda: system().run(program, limit=EXACT_LIMIT)


@pytest.mark.parametrize("name", sorted(EXACT_COUNTS))
def test_scheduler_work_is_exact(name, monkeypatch):
    counts, result = _count_ticks(monkeypatch, _exact_run(name))
    assert (result.cycles, counts["tick"], counts["next_event"],
            counts["note_skipped"]) == EXACT_COUNTS[name]


def _budget_runs():
    from repro.baseline.perfect import PerfectSystem
    from repro.baseline.traditional import TraditionalSystem
    from repro.core.hybrid import HybridSystem, ParallelPhase
    from repro.experiments.config import traditional_config

    small = dataclasses.replace(_config(2, "bus"), max_cycles=50)
    tsmall = dataclasses.replace(traditional_config(denom=2), max_cycles=50)
    return {
        "datascalar": lambda p: DataScalarSystem(small).run(p, limit=LIMIT),
        "datascalar-dense": lambda p: DataScalarSystem(
            dataclasses.replace(small, fast_forward=False)).run(
                p, limit=LIMIT),
        "traditional": lambda p: TraditionalSystem(tsmall).run(p,
                                                               limit=LIMIT),
        "perfect": lambda p: PerfectSystem().run(p, max_cycles=50,
                                                 limit=LIMIT),
        "hybrid": lambda p: HybridSystem(small).run(
            [ParallelPhase(programs=[p, p])], limit=LIMIT),
    }


@pytest.mark.parametrize("system", sorted(_budget_runs()))
def test_cycle_budget_overrun_is_a_typed_error(system):
    program = build_program("compress")
    with pytest.raises(SimulationError, match="exceeded 50 cycles"):
        _budget_runs()[system](program)
