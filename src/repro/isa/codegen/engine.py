"""Compile, cache, and run program-specialized trace steppers.

:func:`compile_program` turns a program into a :class:`CompiledProgram`
— generated source, ``compile()``'d and ``exec``'d once — memoized
under the program's content digest, the same move
:func:`repro.workloads.common.shared_program` makes for program
assembly: a sweep that runs one benchmark across dozens of
configurations specializes it once per process.

:class:`CompiledExecution` holds the same architectural state as
:class:`~repro.isa.interpreter.Interpreter` and yields the same
:meth:`~repro.isa.interpreter.Interpreter.trace` records, bit for bit.
:func:`make_trace_source` is the one place the front end is chosen:
generated code whenever :func:`supports` accepts the program, the
interpreter otherwise (indirect jumps, or text larger than
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

from ...errors import ExecutionError
from ...memory.address import STACK_TOP
from ...obs.spans import span, timed_frontend
from ..interpreter import Interpreter, _to_signed, _trunc_div, _trunc_rem
from ..opcodes import Opcode
from ..registers import NUM_REGS, SP
from ..trace import DynInstr, annotate
from .emit import emit_source

#: Stamp of the generated-code template format (see module docstring).
CODEGEN_VERSION = "2"

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
    """Can ``program`` be specialized?  (:func:`make_trace_source`'s
    choice of front end.)"""
    instrs = program.instructions
    if len(instrs) > MAX_CODEGEN_INSTRUCTIONS:
        return False
    return all(ins.op != Opcode.JR for ins in instrs)


class CompiledProgram:
    """One generated module: source text plus its bound ``step``."""

    __slots__ = ("digest", "filename", "source", "step")

    def __init__(self, program):
        self.digest = program_digest(program)
        self.source = emit_source(program)
        name = program.name or "program"
        self.filename = f"<repro.codegen:{name}:{self.digest[:12]}>"
        namespace = {
            "DynInstr": DynInstr,
            "ExecutionError": ExecutionError,
            "_to_signed": _to_signed,
            "_trunc_div": _trunc_div,
            "_trunc_rem": _trunc_rem,
        }
        exec(compile(self.source, self.filename, "exec"), namespace)
        self.step = namespace["step"]


#: program digest -> CompiledProgram.
_COMPILED_CACHE: "dict[str, CompiledProgram]" = {}


def compile_program(program) -> CompiledProgram:
    """Memoized specialization of ``program``."""
    key = program_digest(program)
    compiled = _COMPILED_CACHE.get(key)
    if compiled is None:
        # Only real specializations are charged to the codegen-compile
        # phase; memoized lookups cost (and record) nothing.
        with span("codegen-compile"):
            compiled = CompiledProgram(program)
        _COMPILED_CACHE[key] = compiled
    return compiled


class CompiledExecution:
    """The interpreter's architectural state and :meth:`trace`, backed
    by generated code.

    State lives in the same attributes (``registers``/``memory``/
    ``instructions_executed``/``loads``/``stores``/``halted``); the
    generated stepper reads it on entry and writes it back when its
    generator is exhausted or closed.  One difference from the
    interpreter's live shared state: while the generator is *suspended*
    mid-stream, the write-back has not happened yet, so counters trail
    the records already yielded.
    """

    def __init__(self, program, max_instructions: int = 100_000_000):
        program.validate()
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

    def trace(self, limit=None):
        """Generate :class:`DynInstr` records for the timing models.

        Compiles the program on first use; raises
        :class:`~repro.errors.UnsupportedProgramError` for a program
        with indirect jumps.
        """
        limit = self.max_instructions if limit is None else limit
        return compile_program(self.program).step(self, limit)


def make_trace_source(program, limit=None):
    """The record stream every timing model consumes: exactly
    ``annotate(Interpreter(program).trace(limit=limit))``, from
    generated code when :func:`supports` accepts the program and from
    the interpreter otherwise, its lazy consumption charged to
    ``timing-loop/frontend`` while a span recorder is active."""
    execution = (CompiledExecution(program) if supports(program)
                 else Interpreter(program))
    return timed_frontend(annotate(execution.trace(limit=limit)))
