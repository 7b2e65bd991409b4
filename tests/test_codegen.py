"""Program-specialized code generation must be invisible.

:mod:`repro.isa.codegen` compiles a program into a flat generated trace
stepper.  These tests pin down the contract: the generated source is a
pure function of the program (deterministic, memoized), its record
stream is bit-identical to the interpreter's — records, architectural
state, error messages, limit semantics — for every bundled workload,
the fallback/selection rules behave exactly as documented, and only
the timing runs compile a module.  The runner's digests must also see
the generated-code template version.
"""

import pytest

from repro.errors import ExecutionError, UnsupportedProgramError
from repro.isa.builder import ProgramBuilder
from repro.isa.codegen import (CODEGEN_VERSION, CompiledExecution,
                               compile_program, emit_source,
                               make_trace_source, program_digest, supports)
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
# Source generation: deterministic, memoized.
# ----------------------------------------------------------------------
def test_source_is_deterministic():
    program = build_program("compress")
    assert emit_source(program) == emit_source(program)


def test_compile_is_memoized_per_program(monkeypatch):
    monkeypatch.setattr(codegen_engine, "_COMPILED_CACHE", {})
    program = build_program("mgrid")
    first = compile_program(program)
    assert compile_program(program) is first
    # A different program is a different module ...
    assert compile_program(build_program("compress")) is not first
    # ... and an empty cache recompiles to identical source.
    monkeypatch.setattr(codegen_engine, "_COMPILED_CACHE", {})
    recompiled = compile_program(program)
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


def _drain_error(execution) -> str:
    """The message of the ``ExecutionError`` that ends ``execution``'s
    record stream."""
    with pytest.raises(ExecutionError) as error:
        for _ in execution.trace():
            pass
    return str(error.value)


@pytest.mark.parametrize("kind", ["div", "rem", "fdiv", "load", "store"])
def test_error_parity(kind):
    program = _erroring(kind)
    assert (_drain_error(CompiledExecution(program))
            == _drain_error(Interpreter(program)))


def test_fell_off_program_parity():
    b = ProgramBuilder("falls-off")
    past = b.fresh_label("past")
    b.j(past)
    b.halt()  # satisfies validate(); jumped over, never reached
    b.label(past)
    b.li("r1", 1)
    program = b.build()
    assert (_drain_error(CompiledExecution(program))
            == _drain_error(Interpreter(program)))


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


def test_make_trace_source_picks_front_end(monkeypatch):
    """Generated code when ``supports`` accepts the program, the
    interpreter otherwise: only the former compiles a module."""
    compiled = {}
    monkeypatch.setattr(codegen_engine, "_COMPILED_CACHE", compiled)
    ok = build_program("compress")
    assert len(list(make_trace_source(ok, limit=50))) == 50
    assert list(compiled) == [program_digest(ok)]
    jr = _jr_program()
    assert len(list(make_trace_source(jr, limit=50))) == 50
    assert len(compiled) == 1
    with pytest.raises(UnsupportedProgramError):
        CompiledExecution(jr).trace()
    # How tests force an interpreter-fed run.
    monkeypatch.setattr(codegen_engine, "supports", lambda program: False)
    assert len(list(make_trace_source(build_program("mgrid"),
                                      limit=50))) == 50
    assert len(compiled) == 1


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


def test_only_timing_runs_compile(monkeypatch):
    """Generated code has one grain, the timing runs' record stream:
    Tables 1 and 2 (and the replication profile Table 2 plans with)
    interpret and build no module, and a Figure 7 row builds exactly
    one, shared by its five points."""
    from repro.experiments.figure7 import run_benchmark
    from repro.experiments.table1 import run_table1
    from repro.experiments.table2 import run_table2
    from repro.runner import SweepRunner

    compiled = {}
    monkeypatch.setattr(codegen_engine, "_COMPILED_CACHE", compiled)
    kernels = ["compress", "fpppp"]
    run_table1(kernels, limit=2000, runner=SweepRunner(jobs=1))
    run_table2(kernels, limit=2000, runner=SweepRunner(jobs=1))
    assert compiled == {}
    run_benchmark("compress", limit=2000, runner=SweepRunner(jobs=1))
    assert len(compiled) == 1


def test_trace_level_studies_walk_the_stream_once(monkeypatch):
    """Table 2 profiles pages and filters its measurement caches in one
    walk of the interpreter's reference stream, as Table 1 does."""
    from repro.analysis.traffic import measure_esp_traffic
    from repro.experiments.table2 import measure_datathreads

    walks = []
    mem_refs = Interpreter.mem_refs

    def counting(self, *args, **kwargs):
        walks.append(self.program.name)
        return mem_refs(self, *args, **kwargs)

    monkeypatch.setattr(Interpreter, "mem_refs", counting)
    measure_datathreads("compress", limit=2000)
    assert walks == ["compress"]
    walks.clear()
    measure_esp_traffic(build_program("compress"), limit=2000)
    assert walks == ["compress"]


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
