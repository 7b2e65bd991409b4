"""Program-specialized code generation must be invisible.

:mod:`repro.isa.codegen` compiles a (program, config) pair into a flat
generated stepper.  These tests pin down the contract: the generated
source is a pure function of its inputs (deterministic, memoized), every
run mode is bit-identical to the interpreter — records, architectural
state, error messages, limit semantics — for every bundled workload, and
the fallback/selection rules behave exactly as documented.  The runner's
digests must also see the generated-code template version.
"""

import pytest

from repro.errors import ExecutionError
from repro.isa.builder import ProgramBuilder
from repro.isa.codegen import (CODEGEN_VERSION, CodegenSpec,
                               CompiledExecution, UnsupportedProgramError,
                               clear_codegen_cache, compile_program,
                               emit_source, make_execution,
                               make_trace_source, program_digest,
                               supports)
from repro.isa.codegen import engine as codegen_engine
from repro.isa.interpreter import Interpreter
from repro.isa.trace import annotate
from repro.workloads import WORKLOADS, build_program

ALL_WORKLOADS = sorted(WORKLOADS)
LIMIT = 1_500


def _records(trace):
    """Every slot of every DynInstr, as comparable tuples."""
    return [tuple(getattr(d, slot) for slot in d.__slots__) for d in trace]


def _state(execution):
    return {
        "registers": list(execution.registers),
        "memory": dict(execution.memory),
        "instructions": execution.instructions_executed,
        "loads": execution.loads,
        "stores": execution.stores,
        "halted": execution.halted,
    }


# ----------------------------------------------------------------------
# Source generation: deterministic, spec-sensitive, memoized.
# ----------------------------------------------------------------------
def test_source_is_deterministic():
    program = build_program("compress")
    spec = CodegenSpec()
    assert emit_source(program, spec) == emit_source(program, spec)


def test_source_varies_with_spec():
    program = build_program("compress")
    trace_src = emit_source(program, CodegenSpec(grain="trace"))
    run_src = emit_source(program, CodegenSpec(grain="run"))
    ref_src = emit_source(program, CodegenSpec(grain="memrefs"))
    data_src = emit_source(program, CodegenSpec(grain="memrefs",
                                                include_ifetch=False))
    assert len({trace_src, run_src, ref_src, data_src}) == 4


def test_compile_is_memoized_per_program_and_spec():
    program = build_program("mgrid")
    spec = CodegenSpec(grain="run")
    first = compile_program(program, spec)
    assert compile_program(program, spec) is first
    # A different spec is a different module ...
    assert compile_program(program, CodegenSpec(grain="trace")) is not first
    # ... and clearing the cache recompiles to identical source.
    clear_codegen_cache()
    recompiled = compile_program(program, spec)
    assert recompiled is not first
    assert recompiled.source == first.source


def test_program_digest_is_content_addressed():
    program = build_program("compress")
    assert program_digest(program) == program_digest(program)
    assert program_digest(program) != program_digest(build_program("mgrid"))


# ----------------------------------------------------------------------
# Parity with the interpreter, every workload.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_trace_parity(workload):
    program = build_program(workload)
    reference = Interpreter(program)
    compiled = CompiledExecution(program)
    assert (_records(compiled.trace(limit=LIMIT))
            == _records(reference.trace(limit=LIMIT)))
    assert _state(compiled) == _state(reference)


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_run_parity(workload):
    program = build_program(workload)
    reference = Interpreter(program)
    compiled = CompiledExecution(program)
    assert compiled.run(limit=LIMIT) == reference.run(limit=LIMIT)
    assert _state(compiled) == _state(reference)


@pytest.mark.parametrize("include_ifetch", [True, False])
@pytest.mark.parametrize("workload", ["compress", "mgrid", "fpppp"])
def test_memrefs_parity(workload, include_ifetch):
    program = build_program(workload)
    reference = list(Interpreter(program).mem_refs(
        limit=LIMIT, include_ifetch=include_ifetch))
    compiled = list(CompiledExecution(program).mem_refs(
        limit=LIMIT, include_ifetch=include_ifetch))
    assert compiled == reference  # MemRef is a plain namedtuple


@pytest.mark.parametrize("limit", [0, 1, 7, None])
def test_limit_parity(limit):
    program = build_program("li")
    reference = Interpreter(program)
    compiled = CompiledExecution(program)
    assert (_records(compiled.trace(limit=limit))
            == _records(reference.trace(limit=limit)))
    assert _state(compiled) == _state(reference)
    if limit is None:
        assert compiled.halted  # ran to HALT, not to a cap


# ----------------------------------------------------------------------
# Error parity: same exception type, same message, same position.
# ----------------------------------------------------------------------
def _erroring(kind: str):
    b = ProgramBuilder(f"err-{kind}")
    scratch = b.alloc_global("scratch", 64)
    if kind == "div":
        b.li("r1", 5)
        b.div("r2", "r1", "r0")
    elif kind == "rem":
        b.li("r1", 5)
        b.rem("r2", "r1", "r0")
    elif kind == "fdiv":
        b.fdiv("f2", "f1", "f0")
    elif kind == "load":
        b.li("r1", scratch + 2)
        b.lw("r2", "r1", 0)
    else:  # misaligned store
        b.li("r1", scratch + 4)
        b.sd("f1", "r1", 0)
    b.halt()
    return b.build()


@pytest.mark.parametrize("kind", ["div", "rem", "fdiv", "load", "store"])
def test_error_parity(kind):
    program = _erroring(kind)
    with pytest.raises(ExecutionError) as reference:
        Interpreter(program).run()
    with pytest.raises(ExecutionError) as compiled:
        CompiledExecution(program).run()
    assert str(compiled.value) == str(reference.value)


def test_fell_off_program_parity():
    b = ProgramBuilder("falls-off")
    past = b.fresh_label("past")
    b.j(past)
    b.halt()  # satisfies validate(); jumped over, never reached
    b.label(past)
    b.li("r1", 1)
    program = b.build()
    with pytest.raises(ExecutionError) as reference:
        Interpreter(program).run()
    with pytest.raises(ExecutionError) as compiled:
        CompiledExecution(program).run()
    assert str(compiled.value) == str(reference.value)


# ----------------------------------------------------------------------
# Selection and fallback rules.
# ----------------------------------------------------------------------
def _jr_program():
    b = ProgramBuilder("uses-jr")
    done = b.fresh_label("done")
    b.jal(done)
    b.label(done)
    b.jr("r31")  # indirect: target depends on runtime register state
    b.halt()
    return b.build()


def test_supports_rejects_indirect_jumps():
    assert not supports(_jr_program())
    assert supports(build_program("compress"))


def test_make_execution_picks_front_end(monkeypatch):
    ok = build_program("compress")
    assert isinstance(make_execution(ok), CompiledExecution)
    assert isinstance(make_execution(_jr_program()), Interpreter)
    with pytest.raises(UnsupportedProgramError):
        CompiledExecution(_jr_program())
    # How tests force an interpreter-fed run.
    monkeypatch.setattr(codegen_engine, "supports", lambda program: False)
    assert isinstance(make_execution(ok), Interpreter)


def test_trace_source_is_drop_in():
    """The one stream every timing model consumes: the interpreter's
    records, annotated (so ``deps`` and ``fwd`` are compared too)."""
    program = build_program("go")
    assert (_records(make_trace_source(program, limit=200))
            == _records(annotate(Interpreter(program).trace(limit=200))))


def test_every_timing_model_runs_on_generated_code(monkeypatch):
    """Figure 7's five points (perfect, DataScalar at 2 and 4 nodes,
    traditional with 1/2 and 1/4 on-chip) each take their stream from
    generated code, and forcing the interpreter changes no number."""
    from repro.experiments.figure7 import run_benchmark
    from repro.runner import SweepRunner, result_fingerprint

    calls = []
    trace = CompiledExecution.trace

    def counted(self, limit=None):
        calls.append(limit)
        return trace(self, limit=limit)

    monkeypatch.setattr(CompiledExecution, "trace", counted)

    def row():
        return result_fingerprint(run_benchmark(
            "compress", limit=2000, runner=SweepRunner(jobs=1)))

    generated = row()
    assert calls == [2000] * 5
    calls.clear()
    monkeypatch.setattr(codegen_engine, "supports", lambda program: False)
    assert row() == generated
    assert calls == []


# ----------------------------------------------------------------------
# The runner must see generated-code template changes.
# ----------------------------------------------------------------------
def test_point_digest_sees_codegen_version(monkeypatch):
    from repro.experiments.config import datascalar_config
    from repro.isa import codegen
    from repro.runner import SweepPoint
    from repro.runner.digest import point_digest

    point = SweepPoint.make("datascalar", "compress", limit=100,
                            config=datascalar_config(2))
    before = point_digest(point)
    monkeypatch.setattr(codegen, "CODEGEN_VERSION",
                        CODEGEN_VERSION + "-test")
    assert point_digest(point) != before
