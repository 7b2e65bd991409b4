"""Fast-forward must be invisible: bit-identical results vs. dense ticking.

The scheduler in :mod:`repro.core.system` skips cycle ranges that are
provably idle for every node and shares one functional interpreter
across all nodes (:mod:`repro.isa.fanout`).  Neither is allowed to
change a single reported number: these tests run the same workload with
``fast_forward`` on and off — the off runs also forced back onto
per-node interpreters, reproducing the original dense scheduler exactly
— across every interconnect medium and node count, and compare full
result snapshots.  Tracing and hangs must be just as invisible:
the stall events of a traced run add up to its stall counters, its
commit, DCUB and BSHR events to the matching counters, and a wedged
machine raises the dense run's error.  Finally, the scheduler's
work on five benchmark-shaped runs (calls of ``Pipeline.tick``, and
those that follow a skipped range) is pinned exactly.
"""

import dataclasses

import pytest

from repro.core import DataScalarSystem
from repro.experiments.config import datascalar_config
from repro.isa.interpreter import Interpreter
from repro.isa.trace import annotate
from repro.memory import canonical_outcomes
from repro.workloads import build_program

WORKLOADS = ["compress", "mgrid", "applu"]
MEDIA = ["bus", "ring"]
NODE_COUNTS = [1, 2, 4]
LIMIT = 2_500


class _DenseSystem(DataScalarSystem):
    """The pre-optimization scheduler: one interpreter per node, each
    with its own pair of canonical caches (this ``_make_traces``
    override replaces the shared fan-out and its one
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


@pytest.mark.parametrize("interconnect", ["bus", "ring"])
def test_fast_forward_matches_dense_under_faults(interconnect):
    """The faulty medium adds pending recovery timers and BSHR wait
    deadlines; ``drive`` must fold them in so skipping stays
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


# Rows for the stall-event sums: (kernel, nodes, bus divisor, core
# changes, the causes the row makes non-zero).  The benchmark-shaped
# default cores stall on fetch and a full window; a 4-entry LSQ adds
# LSQ stalls.
STALL_LIMIT = 4_000
STALL_ROWS = {
    "compress-16x": ("compress", 4, 16, {}, ("fetch", "window")),
    "applu-16x": ("applu", 4, 16, {}, ("window",)),
    "mgrid-1x": ("mgrid", 2, 1, {}, ("fetch",)),
    "compress-16x-lsq4": ("compress", 4, 16, {"lsq_entries": 4},
                          ("fetch", "lsq")),
}


@pytest.mark.parametrize("fast_forward", [True, False])
@pytest.mark.parametrize("row", sorted(STALL_ROWS))
def test_stall_events_add_up_to_the_stall_counters(row, fast_forward):
    """Per node and per cause, the ``cycles`` of the ``ISSUE_STALL``
    events sum to the matching stall counter, whether each stalled cycle
    was ticked (one event each) or skipped (one event per range)."""
    from repro.experiments.config import (timing_bus_config,
                                          timing_node_config)
    from repro.obs import EventKind, EventTracer

    kernel, num_nodes, divisor, core, causes = STALL_ROWS[row]
    node = timing_node_config()
    node = dataclasses.replace(node, cpu=dataclasses.replace(node.cpu,
                                                             **core))
    config = dataclasses.replace(
        datascalar_config(num_nodes, node=node, bus=timing_bus_config(
            cycles_per_bus_cycle=divisor)),
        fast_forward=fast_forward)
    tracer = EventTracer(kinds={EventKind.ISSUE_STALL})
    result = DataScalarSystem(config).run(build_program(kernel),
                                          limit=STALL_LIMIT, tracer=tracer)
    sums: dict = {}
    for event in tracer.events:
        key = (event.node, event.args["cause"])
        sums[key] = sums.get(key, 0) + event.args["cycles"]
    for node_result in result.nodes:
        stats = node_result.pipeline
        for cause in ("fetch", "window", "lsq"):
            assert sums.pop((node_result.node_id, cause), 0) == getattr(
                stats, f"{cause}_stalls"), (node_result.node_id, cause)
    assert not sums, f"stall events of no node or cause: {sums}"
    for cause in causes:
        assert getattr(result.nodes[0].pipeline, f"{cause}_stalls") > 0


@pytest.mark.parametrize("num_nodes", [2, 4])
@pytest.mark.parametrize("kernel", ["compress", "applu"])
def test_traced_events_balance_the_counters(kernel, num_nodes):
    """Per node, the protocol events add up to the counters they
    narrate: a ``commit`` per committed instruction, a ``dcub-apply``
    per ``dcub-stage``, an unsquashed ``bcast-consume`` per
    ``bshr-alloc`` (every waiting load is woken), a ``bshr-alloc`` or
    ``bshr-fill`` per load that reached the BSHR, and a squashed
    ``bcast-consume`` per squash, an arrival that was already buffered
    when its discard was scheduled included."""
    from repro.experiments.config import timing_node_config
    from repro.obs import EventKind, EventTracer

    config = datascalar_config(num_nodes, node=timing_node_config())
    tracer = EventTracer(kinds={
        EventKind.COMMIT, EventKind.DCUB_STAGE, EventKind.DCUB_APPLY,
        EventKind.BSHR_ALLOC, EventKind.BSHR_FILL, EventKind.BCAST_CONSUME})
    result = DataScalarSystem(config).run(build_program(kernel),
                                          limit=STALL_LIMIT, tracer=tracer)
    counts: dict = {}
    for event in tracer.events:
        kind = event.kind.value
        if event.kind is EventKind.BCAST_CONSUME and event.args["squashed"]:
            kind = "squash"
        counts[event.node, kind] = counts.get((event.node, kind), 0) + 1
    for node in result.nodes:
        def count(kind):
            return counts.get((node.node_id, kind), 0)

        assert count("commit") == node.pipeline.committed
        assert count("dcub-stage") == count("dcub-apply")
        assert count("bshr-alloc") == count("bcast-consume")
        assert (count("bshr-alloc") + count("bshr-fill")
                == node.bshr_waits + node.bshr_found)
        assert count("squash") == node.bshr_squashes, node.node_id
    assert sum(node.bshr_squashes for node in result.nodes) > 0


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
    from repro.experiments.config import traditional_config
    from repro.runner.digest import result_fingerprint

    return result_fingerprint({
        "traditional": TraditionalSystem(traditional_config(denom=2)).run(
            program, limit=LIMIT),
        "perfect": PerfectSystem().run(program, limit=LIMIT),
        "onchip": TraditionalSystem(traditional_config(denom=1)).run(
            program, limit=LIMIT),
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
    ``Pipeline.tick`` (``tick``), and those that follow a skipped range
    of the pipeline's cycles (``after_skip``).  Returns
    ``(counts, result)``."""
    counts = {"tick": 0, "after_skip": 0}
    tick = Pipeline.tick

    def counted(self, now):
        counts["tick"] += 1
        if now > self.stats.cycles:
            counts["after_skip"] += 1
        return tick(self, now)

    with monkeypatch.context() as patch:
        patch.setattr(Pipeline, "tick", counted)
        result = run()
    return counts, result


def test_faults_and_tracing_skip_like_a_plain_run(monkeypatch):
    """Fault mode (with nothing to inject) and an event tracer add no
    bound or hook to the one driver: each run ticks exactly as often as
    the plain run, with identical results."""
    from repro.obs import EventTracer
    from repro.params import FaultConfig

    program = build_program("compress")
    config = _config(4, "bus")
    silent = dataclasses.replace(config, faults=FaultConfig(seed=3))
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
# traditional baseline, at limit 16,000: (cycles, ticks, ticks that
# follow a skipped range).  The counts are exact for a given input on
# any host, so a change that makes the scheduler tick more (or skip
# less) fails here instead of in a noisy timing floor.  A change that
# alters them on purpose re-records them at its parent and says so.
EXACT_LIMIT = 16_000
EXACT_FAULTS = {"drop_prob": 0.02, "receiver_drop_prob": 0.02,
                "corrupt_prob": 0.01, "jitter_prob": 0.05}
EXACT_COUNTS = {
    "membound": (139_432, 35_005, 7_579),
    "compute": (2_801, 5_194, 171),
    "issue-churn": (67_150, 46_091, 5_280),
    "faulty": (15_695, 26_796, 3_625),
    "traditional": (55_328, 8_191, 1_628),
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
    assert (result.cycles, counts["tick"],
            counts["after_skip"]) == EXACT_COUNTS[name]


class _DeafNodeSystem(DataScalarSystem):
    """A broken machine: its medium never delivers to node 1, so node 1
    waits forever for the first line a peer owns."""

    class _Deaf:
        def __init__(self, inner):
            self._inner = inner

        def broadcast(self, now, src, line, payload_bytes):
            arrivals = list(self._inner.broadcast(now, src, line,
                                                  payload_bytes))
            arrivals[1] = None
            return arrivals

        def __getattr__(self, name):
            return getattr(self._inner, name)

    def _make_medium(self):
        return self._Deaf(super()._make_medium())


@pytest.mark.parametrize("num_nodes, cycle, head", [(2, 3025, 14),
                                                     (3, 3035, 19),
                                                     (4, 3025, 14)])
def test_a_hang_raises_the_dense_error(num_nodes, cycle, head, monkeypatch):
    """A node that waits on a peer forever has no event of its own;
    skipping must still surface the hang as the typed error that dense
    ticking raises, at the same cycle.  (At 2 nodes the deaf node is
    the only receiver, so each of node 0's broadcasts arrives nowhere;
    the sender must not fail on that before node 1 hangs.)  The same
    holds with the fault layer armed but injecting nothing: a delivery
    lost outside it raises the same error at the same cycle."""
    from repro.cpu import pipeline as pipeline_module
    from repro.params import FaultConfig

    monkeypatch.setattr(pipeline_module, "DEADLOCK_CYCLES", 3_000)
    program = build_program("compress")
    messages = []
    for faults in (None, FaultConfig(seed=1)):
        for fast_forward in (True, False):
            config = dataclasses.replace(_config(num_nodes, "bus"),
                                         fast_forward=fast_forward,
                                         faults=faults)
            with pytest.raises(SimulationError) as excinfo:
                _DeafNodeSystem(config).run(program, limit=4_000)
            messages.append(str(excinfo.value))
    assert messages == [messages[0]] * 4
    assert messages[0] == (
        f"no commit for 3000 cycles at cycle {cycle}; "
        f"head=<RUUEntry #{head} LOAD issued=True result=None>")


def _budget_runs():
    from repro.baseline.perfect import PerfectSystem
    from repro.baseline.traditional import TraditionalSystem
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
    }


@pytest.mark.parametrize("system", sorted(_budget_runs()))
def test_cycle_budget_overrun_is_a_typed_error(system):
    program = build_program("compress")
    with pytest.raises(SimulationError, match="exceeded 50 cycles"):
        _budget_runs()[system](program)
