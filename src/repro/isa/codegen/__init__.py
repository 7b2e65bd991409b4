"""Program-specialized code generation.

Compiles a :class:`~repro.isa.program.Program` into a flat generated
Python module — basic blocks unrolled into straight-line statements,
operand fields and fall-through successors constant-folded into source
text, the register file held in stepper locals — ``compile()``+``exec``'d
once and memoized per program digest.  Its one function yields the
interpreter's :meth:`~repro.isa.interpreter.Interpreter.trace` records
bit for bit; :func:`make_trace_source` uses it for every program
:func:`supports` accepts.

See ``docs/simulator.md`` ("Specialized code generation") for what gets
folded, the memoization key, and the fallback rules.
"""

from .emit import emit_source
from .engine import (CODEGEN_VERSION, MAX_CODEGEN_INSTRUCTIONS,
                     CompiledExecution, CompiledProgram, compile_program,
                     make_trace_source, program_digest, supports)

__all__ = [
    "CODEGEN_VERSION",
    "MAX_CODEGEN_INSTRUCTIONS",
    "CompiledExecution",
    "CompiledProgram",
    "compile_program",
    "emit_source",
    "make_trace_source",
    "program_digest",
    "supports",
]
