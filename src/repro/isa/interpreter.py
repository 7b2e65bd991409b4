"""Functional interpreter for the simulated ISA.

This is the execution-driven front end, the simulator's one executable
semantics of the ISA: it runs programs to completion, optionally
emitting a dynamic-instruction trace (for the timing models, through
:func:`make_trace_source`) or a stream of ``(kind, addr)`` memory
references (for the cache-filter studies of paper Sections 3.1 and 3.2).

Dispatch is predecoded: construction compiles every static instruction
into a zero-argument closure with its operand fields, fall-through
successor, and error text bound at compile time, so the hot loop is one
list index and one call per retired instruction instead of a long
opcode ``if``/``elif`` chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ExecutionError
from ..memory.address import INSTRUCTION_BYTES, STACK_TOP, TEXT_BASE
from .opcodes import CONDITIONAL_BRANCHES, OP_CLASS, Opcode
from .program import Program
from .registers import NUM_REGS, SP, ZERO
from .trace import IFETCH, READ, WRITE, DynInstr, annotate

_U64 = (1 << 64) - 1
_S63 = 1 << 63


def _to_signed(value: int) -> int:
    """Wrap an integer into signed 64-bit range."""
    value &= _U64
    return value - (1 << 64) if value >= _S63 else value


def _trunc_div(a: int, b: int) -> int:
    """C-style division truncating toward zero."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _trunc_rem(a: int, b: int) -> int:
    """C-style remainder (sign of the dividend)."""
    return a - b * _trunc_div(a, b)


@dataclass
class ExecResult:
    """Outcome of a functional run."""

    instructions: int
    halted: bool
    registers: list
    loads: int
    stores: int


class Interpreter:
    """Executes one :class:`Program` functionally.

    The interpreter is restartable: construct a fresh one per run.  Memory
    is a sparse dictionary keyed by byte address; every (address, size)
    slot is accessed consistently by well-formed programs.
    """

    def __init__(self, program: Program, max_instructions: int = 100_000_000):
        program.validate()
        self.program = program
        self.max_instructions = max_instructions
        self.registers = [0] * NUM_REGS
        for fp in range(32, NUM_REGS):
            self.registers[fp] = 0.0
        self.registers[SP] = STACK_TOP - 16
        self.memory = dict(program.data_image)
        self._code = self._compile(program)
        #: Per-index static record fields for :meth:`trace`:
        #: ``(pc, op_class, dest, srcs)``.
        self._meta = [
            (TEXT_BASE + i * INSTRUCTION_BYTES, int(OP_CLASS[ins.op]),
             ins.destination(), ins.sources())
            for i, ins in enumerate(program.instructions)
        ]
        self.instructions_executed = 0
        self.loads = 0
        self.stores = 0
        self.halted = False

    def _compile(self, program):
        """Predecode every instruction into an execution closure.

        Each closure performs one retired instruction against the live
        register file and memory image and returns ``(next_index,
        mem_kind, address, size)`` — ``mem_kind`` is ``None`` for
        non-memory instructions.  Non-memory closures return a tuple
        frozen at compile time, so the steady state allocates nothing.
        """
        code_len = len(program.instructions)
        return [self._compile_one(index, instr, code_len)
                for index, instr in enumerate(program.instructions)]

    def _compile_one(self, index: int, instr, code_len: int):
        op = instr.op
        rd, rs1, rs2 = instr.rd, instr.rs1, instr.rs2
        imm, target = instr.imm, instr.target
        regs = self.registers
        memory = self.memory
        fall = (index + 1, None, 0, 0)
        writes = rd is not None and rd != ZERO

        # ---------------- integer register-register ALU ----------------
        if op == Opcode.ADD:
            if writes:
                def step():
                    regs[rd] = regs[rs1] + regs[rs2]
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.SUB:
            if writes:
                def step():
                    regs[rd] = regs[rs1] - regs[rs2]
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.MUL:
            if writes:
                def step():
                    regs[rd] = _to_signed(regs[rs1] * regs[rs2])
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.DIV:
            def step():
                b = regs[rs2]
                if b == 0:
                    raise ExecutionError(f"divide by zero at index {index}")
                value = _trunc_div(regs[rs1], b)
                if writes:
                    regs[rd] = value
                return fall
        elif op == Opcode.REM:
            def step():
                b = regs[rs2]
                if b == 0:
                    raise ExecutionError(
                        f"remainder by zero at index {index}")
                value = _trunc_rem(regs[rs1], b)
                if writes:
                    regs[rd] = value
                return fall
        elif op == Opcode.AND:
            if writes:
                def step():
                    regs[rd] = regs[rs1] & regs[rs2]
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.OR:
            if writes:
                def step():
                    regs[rd] = regs[rs1] | regs[rs2]
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.XOR:
            if writes:
                def step():
                    regs[rd] = regs[rs1] ^ regs[rs2]
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.SLL:
            if writes:
                def step():
                    regs[rd] = _to_signed(regs[rs1] << (regs[rs2] & 63))
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.SRL:
            if writes:
                def step():
                    regs[rd] = (regs[rs1] & _U64) >> (regs[rs2] & 63)
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.SRA:
            if writes:
                def step():
                    regs[rd] = regs[rs1] >> (regs[rs2] & 63)
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.SLT:
            if writes:
                def step():
                    regs[rd] = 1 if regs[rs1] < regs[rs2] else 0
                    return fall
            else:
                def step():
                    return fall
        # ---------------- immediate integer ALU ----------------
        elif op == Opcode.LI:
            if writes:
                def step():
                    regs[rd] = imm
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.MOV:
            if writes:
                def step():
                    regs[rd] = regs[rs1]
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.ADDI:
            if writes:
                def step():
                    regs[rd] = regs[rs1] + imm
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.ANDI:
            if writes:
                def step():
                    regs[rd] = regs[rs1] & imm
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.ORI:
            if writes:
                def step():
                    regs[rd] = regs[rs1] | imm
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.XORI:
            if writes:
                def step():
                    regs[rd] = regs[rs1] ^ imm
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.SLLI:
            shift = imm & 63
            if writes:
                def step():
                    regs[rd] = _to_signed(regs[rs1] << shift)
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.SRLI:
            shift = imm & 63
            if writes:
                def step():
                    regs[rd] = (regs[rs1] & _U64) >> shift
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.SLTI:
            if writes:
                def step():
                    regs[rd] = 1 if regs[rs1] < imm else 0
                    return fall
            else:
                def step():
                    return fall
        # ---------------- memory ----------------
        elif op in (Opcode.LW, Opcode.LB, Opcode.LD):
            size = 4 if op == Opcode.LW else (1 if op == Opcode.LB else 8)
            default = 0.0 if op == Opcode.LD else 0
            nxt = index + 1

            def step():
                addr = regs[rs1] + imm
                if addr % size:
                    raise ExecutionError(
                        f"unaligned load of {size} at {addr:#x} "
                        f"(index {index})"
                    )
                if writes:
                    regs[rd] = memory.get(addr, default)
                self.loads += 1
                return (nxt, READ, addr, size)
        elif op in (Opcode.SW, Opcode.SB, Opcode.SD):
            size = 4 if op == Opcode.SW else (1 if op == Opcode.SB else 8)
            masked = op == Opcode.SB
            nxt = index + 1

            def step():
                addr = regs[rs1] + imm
                if addr % size:
                    raise ExecutionError(
                        f"unaligned store of {size} at {addr:#x} "
                        f"(index {index})"
                    )
                value = regs[rs2]
                if masked:
                    value &= 0xFF
                memory[addr] = value
                self.stores += 1
                return (nxt, WRITE, addr, size)
        # ---------------- floating point ----------------
        elif op == Opcode.FADD:
            if writes:
                def step():
                    regs[rd] = regs[rs1] + regs[rs2]
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.FSUB:
            if writes:
                def step():
                    regs[rd] = regs[rs1] - regs[rs2]
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.FMUL:
            if writes:
                def step():
                    regs[rd] = regs[rs1] * regs[rs2]
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.FDIV:
            def step():
                divisor = regs[rs2]
                if divisor == 0.0:
                    raise ExecutionError(
                        f"fp divide by zero at index {index}")
                value = regs[rs1] / divisor
                if writes:
                    regs[rd] = value
                return fall
        elif op == Opcode.FNEG:
            if writes:
                def step():
                    regs[rd] = -regs[rs1]
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.FMOV:
            if writes:
                def step():
                    regs[rd] = regs[rs1]
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.FCLT:
            if writes:
                def step():
                    regs[rd] = 1 if regs[rs1] < regs[rs2] else 0
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.CVTIF:
            if writes:
                def step():
                    regs[rd] = float(regs[rs1])
                    return fall
            else:
                def step():
                    return fall
        elif op == Opcode.CVTFI:
            if writes:
                def step():
                    regs[rd] = int(regs[rs1])
                    return fall
            else:
                def step():
                    return fall
        # ---------------- control ----------------
        elif op in CONDITIONAL_BRANCHES:
            taken = (target, None, 0, 0)
            if op == Opcode.BEQ:
                def step():
                    return taken if regs[rs1] == regs[rs2] else fall
            elif op == Opcode.BNE:
                def step():
                    return taken if regs[rs1] != regs[rs2] else fall
            elif op == Opcode.BLT:
                def step():
                    return taken if regs[rs1] < regs[rs2] else fall
            elif op == Opcode.BGE:
                def step():
                    return taken if regs[rs1] >= regs[rs2] else fall
            elif op == Opcode.BLE:
                def step():
                    return taken if regs[rs1] <= regs[rs2] else fall
            else:  # BGT
                def step():
                    return taken if regs[rs1] > regs[rs2] else fall
        elif op == Opcode.J:
            jump = (target, None, 0, 0)

            def step():
                return jump
        elif op == Opcode.JAL:
            jump = (target, None, 0, 0)
            link = TEXT_BASE + (index + 1) * INSTRUCTION_BYTES
            if writes:
                def step():
                    regs[rd] = link
                    return jump
            else:
                def step():
                    return jump
        elif op == Opcode.JR:
            def step():
                pc = regs[rs1]
                nxt, mis = divmod(pc - TEXT_BASE, INSTRUCTION_BYTES)
                if mis or not 0 <= nxt < code_len:
                    raise ExecutionError(
                        f"JR to bad pc {pc:#x} (index {index})")
                return (nxt, None, 0, 0)
        elif op == Opcode.HALT:
            def step():
                self.halted = True
                return fall
        else:  # NOP
            def step():
                return fall
        return step

    # ------------------------------------------------------------------
    # Public run modes.
    # ------------------------------------------------------------------
    def run(self, limit=None) -> ExecResult:
        """Execute functionally with no per-instruction records: drains
        :meth:`mem_refs` without its instruction fetches."""
        for _ in self.mem_refs(limit, include_ifetch=False):
            pass
        return self.result()

    def trace(self, limit=None):
        """Generate :class:`DynInstr` records for the timing models."""
        limit = self.max_instructions if limit is None else limit
        index = 0
        code = self._code
        code_len = len(code)
        meta = self._meta
        seq = 0

        while not self.halted and seq < limit:
            if not 0 <= index < code_len:
                raise ExecutionError(f"fell off program at index {index}")
            pc, op_class, dest, srcs = meta[index]
            index, kind, addr, size = code[index]()
            self.instructions_executed += 1
            yield DynInstr(seq, pc, op_class, dest, srcs,
                           addr if kind else None, size)
            seq += 1

    def mem_refs(self, limit=None, include_ifetch=True):
        """Generate plain ``(kind, addr)`` pairs (cache-filter studies):
        ``(IFETCH, pc)`` per retired instruction unless
        ``include_ifetch`` is false, then ``(READ or WRITE, addr)`` per
        data access."""
        limit = self.max_instructions if limit is None else limit
        index = 0
        code = self._code
        code_len = len(code)
        fetches = [(IFETCH, pc) for pc, _, _, _ in self._meta]
        while not self.halted and self.instructions_executed < limit:
            if not 0 <= index < code_len:
                raise ExecutionError(f"fell off program at index {index}")
            fetch = fetches[index]
            index, kind, addr, _size = code[index]()
            self.instructions_executed += 1
            if include_ifetch:
                yield fetch
            if kind is not None:
                yield kind, addr

    def result(self) -> ExecResult:
        """Snapshot the run outcome."""
        return ExecResult(
            instructions=self.instructions_executed,
            halted=self.halted,
            registers=list(self.registers),
            loads=self.loads,
            stores=self.stores,
        )


def make_trace_source(program: Program, limit=None):
    """The record stream every timing model consumes:
    ``annotate(Interpreter(program).trace(limit=limit))``."""
    return annotate(Interpreter(program).trace(limit=limit))
