"""Compile, cache, and run program-specialized steppers.

:func:`compile_program` turns a (program, :class:`CodegenSpec`) pair
into a :class:`CompiledProgram` — generated source, ``compile()``'d and
``exec``'d once — memoized under (program content digest, spec), the
same move :func:`repro.workloads.common.shared_program` makes for
program assembly: a sweep that runs one benchmark across dozens of
configurations specializes it once per process and grain.

:class:`CompiledExecution` is the drop-in replacement for
:class:`~repro.isa.interpreter.Interpreter`: same constructor shape,
same architectural state attributes, same ``trace``/``run``/
``mem_refs``/``result`` surface, bit-identical behavior.
:func:`make_execution` picks the front end from the program alone:
generated code whenever :func:`supports` accepts it, the interpreter
otherwise (indirect jumps, or text larger than
:data:`MAX_CODEGEN_INSTRUCTIONS`).  Tests that need an interpreter-fed
run monkeypatch :func:`supports`.

``CODEGEN_VERSION`` stamps the emitter's output format; it is folded
into every sweep-point digest (:mod:`repro.runner.digest`) so cached
results can never alias across generated-code template changes — even
under a pinned ``REPRO_CODE_VERSION``.  Bump it whenever
:mod:`repro.isa.codegen.emit` changes the meaning of generated code.
"""

from __future__ import annotations

import hashlib

from ...memory.address import STACK_TOP
from ...obs.spans import span, timed_frontend
from ..interpreter import (ExecResult, Interpreter, _to_signed, _trunc_div,
                           _trunc_rem)
from ..opcodes import Opcode
from ..registers import NUM_REGS, SP
from ..trace import IFETCH, READ, WRITE, DynInstr, MemRef, annotate
from .emit import emit_source
from .spec import CodegenSpec, UnsupportedProgramError

#: Stamp of the generated-code template format (see module docstring).
CODEGEN_VERSION = "1"

#: Programs with more static instructions than this are left to the
#: interpreter (compile time and module size grow linearly with program
#: text; every bundled workload is far below the cap).
MAX_CODEGEN_INSTRUCTIONS = 20_000


def program_digest(program) -> str:
    """Content digest of a program (instructions, labels, data image).

    Cached on the program object — programs are immutable after
    assembly, and :func:`repro.workloads.common.shared_program` already
    shares one instance per (name, scale).
    """
    cached = getattr(program, "_codegen_digest", None)
    if cached is not None:
        return cached
    sha = hashlib.sha256()
    for ins in program.instructions:
        sha.update(repr((int(ins.op), ins.rd, ins.rs1, ins.rs2, ins.imm,
                         ins.target)).encode("utf-8"))
    sha.update(repr(sorted(program.labels.items())).encode("utf-8"))
    sha.update(repr(sorted(program.data_image.items())).encode("utf-8"))
    digest = sha.hexdigest()
    try:
        program._codegen_digest = digest
    except AttributeError:  # __slots__-style program stand-ins
        pass
    return digest


def supports(program) -> bool:
    """Can ``program`` be specialized?  (:func:`make_execution`'s
    fallback predicate.)"""
    instrs = program.instructions
    if len(instrs) > MAX_CODEGEN_INSTRUCTIONS:
        return False
    return all(ins.op != Opcode.JR for ins in instrs)


class CompiledProgram:
    """One generated module: source text plus its bound ``step``."""

    __slots__ = ("digest", "spec", "filename", "source", "step")

    def __init__(self, program, spec: CodegenSpec):
        self.digest = program_digest(program)
        self.spec = spec
        self.source = emit_source(program, spec)
        name = program.name or "program"
        self.filename = (f"<repro.codegen:{name}:{spec.grain}:"
                         f"{self.digest[:12]}>")
        namespace = {
            "DynInstr": DynInstr,
            "MemRef": MemRef,
            "IFETCH": IFETCH,
            "READ": READ,
            "WRITE": WRITE,
            "ExecutionError": _execution_error(),
            "_to_signed": _to_signed,
            "_trunc_div": _trunc_div,
            "_trunc_rem": _trunc_rem,
        }
        exec(compile(self.source, self.filename, "exec"), namespace)
        self.step = namespace["step"]


def _execution_error():
    from ...errors import ExecutionError

    return ExecutionError


#: (program digest, spec) -> CompiledProgram.
_COMPILED_CACHE: "dict[tuple[str, CodegenSpec], CompiledProgram]" = {}


def compile_program(program, spec: CodegenSpec = CodegenSpec()):
    """Memoized specialization of ``(program, spec)``."""
    key = (program_digest(program), spec)
    compiled = _COMPILED_CACHE.get(key)
    if compiled is None:
        # Only real specializations are charged to the codegen-compile
        # phase; memoized lookups cost (and record) nothing.
        with span("codegen-compile"):
            compiled = CompiledProgram(program, spec)
        _COMPILED_CACHE[key] = compiled
    return compiled


def clear_codegen_cache() -> None:
    """Drop every compiled module (tests; memory-pressure escape hatch)."""
    _COMPILED_CACHE.clear()


class CompiledExecution:
    """Drop-in :class:`~repro.isa.interpreter.Interpreter` replacement
    backed by generated code.

    Architectural state lives in the same attributes
    (``registers``/``memory``/``instructions_executed``/``loads``/
    ``stores``/``halted``); the generated stepper reads it on entry and
    writes it back when it returns or its generator is closed.  One
    difference from the interpreter's live shared state: while a
    generator is *suspended* mid-stream, the write-back has not happened
    yet, so counters trail the records already yielded until the
    generator is exhausted or closed.
    """

    def __init__(self, program, max_instructions: int = 100_000_000):
        program.validate()
        if not supports(program):
            raise UnsupportedProgramError(
                f"cannot specialize {program.name!r}: program has "
                f"indirect jumps or exceeds {MAX_CODEGEN_INSTRUCTIONS} "
                f"instructions")
        self.program = program
        self.max_instructions = max_instructions
        self.registers = [0] * NUM_REGS
        for fp in range(32, NUM_REGS):
            self.registers[fp] = 0.0
        self.registers[SP] = STACK_TOP - 16
        self.memory = dict(program.data_image)
        self.instructions_executed = 0
        self.loads = 0
        self.stores = 0
        self.halted = False

    def _limit(self, limit) -> int:
        return self.max_instructions if limit is None else limit

    def _step(self, spec: CodegenSpec):
        return compile_program(self.program, spec).step

    # ------------------------------------------------------------------
    # Public run modes, mirroring the interpreter.
    # ------------------------------------------------------------------
    def run(self, limit=None) -> ExecResult:
        """Execute functionally with no per-instruction records."""
        self._step(CodegenSpec(grain="run"))(self, self._limit(limit))
        return self.result()

    def trace(self, limit=None):
        """Generate :class:`DynInstr` records for the timing models."""
        return self._step(CodegenSpec(grain="trace"))(
            self, self._limit(limit))

    def mem_refs(self, limit=None, include_ifetch: bool = True):
        """Generate bare :class:`MemRef` records (cache-filter studies)."""
        spec = CodegenSpec(grain="memrefs", include_ifetch=include_ifetch)
        return self._step(spec)(self, self._limit(limit))

    def result(self) -> ExecResult:
        """Snapshot the run outcome."""
        return ExecResult(
            instructions=self.instructions_executed,
            halted=self.halted,
            registers=list(self.registers),
            loads=self.loads,
            stores=self.stores,
        )

    def read_word(self, address: int) -> int:
        """Read a word from simulated memory (post-run inspection)."""
        return self.memory.get(address, 0)

    def read_double(self, address: int) -> float:
        """Read a double from simulated memory (post-run inspection)."""
        return self.memory.get(address, 0.0)


# ----------------------------------------------------------------------
# Front-end selection.
# ----------------------------------------------------------------------
def make_execution(program, max_instructions: int = 100_000_000):
    """The functional front end for ``program``: generated code when
    :func:`supports` accepts it, the interpreter otherwise."""
    if supports(program):
        return CompiledExecution(program, max_instructions=max_instructions)
    return Interpreter(program, max_instructions=max_instructions)


def make_trace_source(program, limit=None):
    """The record stream every timing model consumes: exactly
    ``annotate(Interpreter(program).trace(limit=limit))``, from whichever
    front end :func:`make_execution` picks, its lazy consumption charged
    to ``timing-loop/frontend`` while a span recorder is active."""
    return timed_frontend(annotate(make_execution(program).trace(limit=limit)))
