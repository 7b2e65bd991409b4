"""The simulated RISC ISA: opcodes, builder DSL, assembler, interpreter."""

from .assembler import Assembler, assemble
from .builder import ProgramBuilder
from .disasm import disassemble, disassemble_instruction
from .fanout import TraceFanout, fan_out
from .instruction import Instruction
from .interpreter import ExecResult, Interpreter, make_trace_source
from .opcodes import OpClass, Opcode
from .program import Program
from .trace import IFETCH, READ, WRITE, DynInstr, annotate

__all__ = [
    "Assembler",
    "assemble",
    "ProgramBuilder",
    "disassemble",
    "disassemble_instruction",
    "TraceFanout",
    "fan_out",
    "Instruction",
    "ExecResult",
    "Interpreter",
    "make_trace_source",
    "OpClass",
    "Opcode",
    "Program",
    "DynInstr",
    "annotate",
    "IFETCH",
    "READ",
    "WRITE",
]
