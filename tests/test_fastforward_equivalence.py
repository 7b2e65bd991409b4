"""Fast-forward must be invisible: bit-identical results vs. dense ticking.

The scheduler in :mod:`repro.core.system` skips cycle ranges that are
provably idle for every node and shares one functional interpreter
across all nodes (:mod:`repro.isa.fanout`).  Neither is allowed to
change a single reported number: these tests run the same workload with
``fast_forward`` on and off — the off runs also forced back onto
per-node interpreters, reproducing the original dense scheduler exactly
— across every interconnect medium and node count, and compare full
result snapshots.
"""

import dataclasses

import pytest

from repro.core import DataScalarSystem
from repro.experiments.config import datascalar_config
from repro.isa.interpreter import Interpreter
from repro.workloads import build_program

WORKLOADS = ["compress", "mgrid", "applu"]
MEDIA = ["bus", "ring", "optical"]
NODE_COUNTS = [1, 2, 4]
LIMIT = 2_500


class _DenseSystem(DataScalarSystem):
    """The pre-optimization scheduler: one interpreter per node (the
    ``_make_trace`` override disables the shared-trace fan-out) and, via
    ``fast_forward=False`` in its config, dense per-cycle ticking."""

    def _make_trace(self, program, node_id, limit):
        return Interpreter(program).trace(limit=limit)


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

    dense_cfg = dataclasses.replace(fast_cfg, fast_forward=False)
    dense = _DenseSystem(dense_cfg).run(program, limit=LIMIT)

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

    dense_cfg = dataclasses.replace(fast_cfg, fast_forward=False)
    dense = _DenseSystem(dense_cfg).run(program, limit=LIMIT)

    assert _snapshot(fast) == _snapshot(dense)
    assert fast.extra["faults"] == dense.extra["faults"]
    assert fast.extra["faults"]["recovery"]["recovered"] > 0


@pytest.mark.parametrize("num_nodes", [2, 4])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_is_bit_identical(workload, num_nodes):
    """Tracing is purely observational: a fully-traced fast-forwarded
    run must report exactly the numbers of the untraced run (and of the
    dense untraced run, by transitivity with the tests above)."""
    from repro.obs import EventTracer, SamplingTracer

    program = build_program(workload)
    config = _config(num_nodes, "bus")
    plain = DataScalarSystem(config).run(program, limit=LIMIT)
    traced = DataScalarSystem(config).run(program, limit=LIMIT,
                                          tracer=EventTracer())
    assert _snapshot(traced) == _snapshot(plain)

    # A scheduled tracer bounds idle-skips to its sample cycles; the
    # skipped-vs-ticked split changes, the numbers must not.
    sampled = DataScalarSystem(config).run(program, limit=LIMIT,
                                           tracer=SamplingTracer(128))
    assert _snapshot(sampled) == _snapshot(plain)


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
# The codegen rows: the generated-code front end (engine="codegen",
# repro.isa.codegen) must be exactly as invisible as fast-forward —
# against the interpreter, the dense scheduler, faults, and tracing.
# ----------------------------------------------------------------------
def _engine(config, engine):
    return dataclasses.replace(config, engine=engine)


@pytest.mark.parametrize("num_nodes", NODE_COUNTS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_codegen_matches_interpreter(workload, num_nodes):
    """Same fast-forwarded system, only the front end differs."""
    program = build_program(workload)
    config = _config(num_nodes, "bus")
    generated = DataScalarSystem(
        _engine(config, "codegen")).run(program, limit=LIMIT)
    interpreted = DataScalarSystem(
        _engine(config, "interpreter")).run(program, limit=LIMIT)
    assert _snapshot(generated) == _snapshot(interpreted)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_codegen_matches_dense(workload):
    """codegen + fast-forward vs the original dense per-node
    interpreters: the two optimization layers compose invisibly."""
    program = build_program(workload)
    config = _config(2, "bus")
    generated = DataScalarSystem(
        _engine(config, "codegen")).run(program, limit=LIMIT)
    dense = _DenseSystem(
        dataclasses.replace(config, fast_forward=False)).run(
            program, limit=LIMIT)
    assert _snapshot(generated) == _snapshot(dense)


def test_codegen_matches_interpreter_under_faults():
    """The faulty row: the engine choice must not perturb the seeded
    fault schedule or the recovery ledger."""
    from repro.params import FaultConfig

    program = build_program("compress")
    faults = FaultConfig(seed=17, receiver_drop_prob=1e-2,
                         corrupt_prob=5e-3, jitter_prob=2e-2,
                         stall_prob=5e-3)
    config = dataclasses.replace(_config(4, "bus"), faults=faults)
    generated = DataScalarSystem(
        _engine(config, "codegen")).run(program, limit=LIMIT)
    interpreted = DataScalarSystem(
        _engine(config, "interpreter")).run(program, limit=LIMIT)
    assert _snapshot(generated) == _snapshot(interpreted)
    assert generated.extra["faults"] == interpreted.extra["faults"]
    assert generated.extra["faults"]["recovery"]["recovered"] > 0


def test_codegen_tracing_is_bit_identical():
    """The traced row: tracing a codegen-fed run reports exactly the
    untraced interpreter-fed numbers."""
    from repro.obs import EventTracer

    program = build_program("mgrid")
    config = _config(2, "bus")
    traced = DataScalarSystem(_engine(config, "codegen")).run(
        program, limit=LIMIT, tracer=EventTracer())
    plain = DataScalarSystem(_engine(config, "interpreter")).run(
        program, limit=LIMIT)
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
from repro.core import hybrid as _hybrid_module
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
    for module in (_traditional_module, _perfect_module, _hybrid_module):
        monkeypatch.setattr(module, "drive", _dense_drive)
    dense = _run_single_pipeline_systems(program)
    assert driven == dense


def _count_ticks(monkeypatch, run):
    calls = []
    tick = Pipeline.tick

    def counting(self, now):
        calls.append(now)
        tick(self, now)

    with monkeypatch.context() as patch:
        patch.setattr(Pipeline, "tick", counting)
        result = run()
    return len(calls), result


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
    plain_ticks, plain = _count_ticks(
        monkeypatch,
        lambda: DataScalarSystem(config).run(program, limit=LIMIT))
    fault_ticks, faulted = _count_ticks(
        monkeypatch,
        lambda: DataScalarSystem(silent).run(program, limit=LIMIT))
    traced_ticks, traced = _count_ticks(
        monkeypatch,
        lambda: DataScalarSystem(config).run(program, limit=LIMIT,
                                             tracer=EventTracer()))
    assert fault_ticks == plain_ticks
    assert traced_ticks == plain_ticks
    # Skipping is real: far fewer ticks than node-cycles.
    assert plain_ticks < 4 * plain.cycles
    assert _snapshot(faulted) == _snapshot(plain)
    assert _snapshot(traced) == _snapshot(plain)


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
