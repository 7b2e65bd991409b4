"""Program-specialized code generation.

Compiles a (:class:`~repro.isa.program.Program`,
:class:`~repro.isa.codegen.spec.CodegenSpec`) pair into a flat generated
Python module — basic blocks unrolled into straight-line statements,
operand fields and fall-through successors constant-folded into source
text, the register file held in stepper locals — ``compile()``+``exec``'d
once and memoized per (program digest, spec).  Bit-identical to the
predecoded-closure interpreter; :func:`make_execution` uses it for every
program :func:`supports` accepts.

See ``docs/simulator.md`` ("Specialized code generation") for what gets
folded, the memoization key, and the fallback rules.
"""

from .emit import emit_source
from .engine import (CODEGEN_VERSION, MAX_CODEGEN_INSTRUCTIONS,
                     CompiledExecution, CompiledProgram,
                     clear_codegen_cache, compile_program, make_execution,
                     make_trace_source, program_digest, supports)
from .spec import CodegenSpec, UnsupportedProgramError

__all__ = [
    "CODEGEN_VERSION",
    "MAX_CODEGEN_INSTRUCTIONS",
    "CodegenSpec",
    "CompiledExecution",
    "CompiledProgram",
    "UnsupportedProgramError",
    "clear_codegen_cache",
    "compile_program",
    "emit_source",
    "make_execution",
    "make_trace_source",
    "program_digest",
    "supports",
]
