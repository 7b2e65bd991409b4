"""Tests for realistic branch prediction and speculative-broadcast
buffering (what the paper's perfect-BP assumption covers)."""

import dataclasses

import pytest

from repro.baseline.perfect import PerfectMemory
from repro.core import DataScalarSystem
from repro.cpu.pipeline import Pipeline
from repro.errors import ConfigError
from repro.experiments import datascalar_config, timing_node_config
from repro.isa import Interpreter, ProgramBuilder, annotate
from repro.params import CPUConfig
from repro.workloads import build_program


def _branchy_program(iterations=300):
    """A data-dependent branch stream (taken when the LCG bit is set)."""
    b = ProgramBuilder()
    b.li("r1", 12345)
    b.li("r2", 0)
    with b.repeat(iterations, "r9"):
        b.li("r3", 1664525)
        b.mul("r1", "r1", "r3")
        b.addi("r1", "r1", 1013904223)
        b.li("r3", 0xFFFFFFFF)
        b.and_("r1", "r1", "r3")
        b.andi("r4", "r1", 16)
        with b.if_cond("ne", "r4", "r0"):
            b.addi("r2", "r2", 1)
    b.halt()
    return b.build()


def _run(cpu_config, program=None):
    pipeline = Pipeline(
        cpu_config, PerfectMemory(),
        annotate(Interpreter(program or _branchy_program()).trace()))
    return pipeline.run(1_000_000)


def test_perfect_prediction_counts_no_branches():
    stats = _run(CPUConfig(branch_predictor="perfect"))
    assert stats.branches == 0
    assert stats.mispredicts == 0


def test_real_predictor_counts_and_mispredicts_on_random_branches():
    stats = _run(CPUConfig(branch_predictor="bimodal"))
    assert stats.branches > 300
    assert stats.mispredicts > 0
    assert 0.0 < stats.misprediction_rate < 1.0


def test_mispredictions_cost_cycles():
    perfect = _run(CPUConfig(branch_predictor="perfect"))
    real = _run(CPUConfig(branch_predictor="bimodal"))
    assert real.committed == perfect.committed  # same work
    assert real.cycles > perfect.cycles


def test_higher_penalty_costs_more():
    cheap = _run(CPUConfig(branch_predictor="bimodal",
                           misprediction_penalty=2))
    costly = _run(CPUConfig(branch_predictor="bimodal",
                            misprediction_penalty=20))
    assert costly.cycles > cheap.cycles


def test_predictable_loop_barely_slower_with_real_predictor():
    b = ProgramBuilder()
    b.li("r1", 0)
    with b.repeat(500, "r2"):
        b.addi("r1", "r1", 1)
    b.halt()
    program = b.build()
    perfect = _run(CPUConfig(branch_predictor="perfect"), program)
    real = _run(CPUConfig(branch_predictor="bimodal"), program)
    assert real.cycles < perfect.cycles * 1.2


def test_unknown_predictor_rejected():
    with pytest.raises(ConfigError):
        CPUConfig(branch_predictor="oracle-of-delphi")
    with pytest.raises(ConfigError):
        CPUConfig(misprediction_penalty=-1)


def test_gshare_and_static_modes_run():
    for kind in ("gshare", "static"):
        stats = _run(CPUConfig(branch_predictor=kind))
        assert stats.branches > 0


# ----------------------------------------------------------------------
# Speculative-broadcast buffering on the DataScalar system.
# ----------------------------------------------------------------------
def test_commit_time_broadcasts_are_all_late_and_slower():
    program = build_program("compress")
    node = timing_node_config()
    eager = DataScalarSystem(datascalar_config(2, node=node)).run(
        program, limit=8000)
    buffered_node = dataclasses.replace(node, commit_time_broadcasts=True)
    buffered = DataScalarSystem(datascalar_config(2, node=buffered_node)).run(
        program, limit=8000)
    assert buffered.late_broadcast_fraction == 1.0
    assert buffered.ipc <= eager.ipc
    # Protocol stays balanced either way (validated inside run()).
    assert (sum(n.broadcasts_sent for n in buffered.nodes)
            >= sum(n.broadcasts_sent for n in eager.nodes) * 0.8)


def test_real_bp_plus_buffering_compound():
    program = build_program("go")
    node = timing_node_config()
    base = DataScalarSystem(datascalar_config(2, node=node)).run(
        program, limit=8000)
    bp_cpu = dataclasses.replace(node.cpu, branch_predictor="bimodal")
    spec_node = dataclasses.replace(node, cpu=bp_cpu,
                                    commit_time_broadcasts=True)
    spec = DataScalarSystem(datascalar_config(2, node=spec_node)).run(
        program, limit=8000)
    assert spec.ipc < base.ipc
