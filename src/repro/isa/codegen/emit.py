"""Emit a flat Python stepper specialized to one program.

The interpreter (:mod:`repro.isa.interpreter`) predecodes each static
instruction into a closure, but the hot loop still pays a list index, a
call, a tuple unpack, and a metadata lookup per retired instruction.
This emitter goes one step further — the same move SimpleScalar makes
with its generated ``ss.def`` dispatch, applied at the source level:

* basic blocks are unrolled into straight-line statements, with the
  fall-through successor encoded by textual adjacency (no dispatch at
  all between the instructions of a block);
* operand fields, immediates, shift amounts, access sizes, alignment
  masks, load defaults, link addresses, and every static
  :class:`~repro.isa.trace.DynInstr` field (pc, op class, dest, srcs
  tuple) are constant-folded into the source text;
* the register file lives in local variables of the generated stepper
  (reads of ``r0`` fold to the literal ``0``; dead writes disappear);
* control transfers assign a block id and ``continue`` into a flat
  non-``elif`` guard chain — blocks are emitted in program order, so a
  fall-through into the next block costs one compare.

The generated module defines one function::

    def step(state, limit): ...

where ``state`` carries the architectural state (an object with the
interpreter's ``registers``/``memory``/counter attributes) and ``limit``
is the resolved dynamic-instruction cap.  The function is a generator
of ``DynInstr`` records, the stream of
:meth:`repro.isa.interpreter.Interpreter.trace`.  Architectural
effects, error messages, and record fields replicate the interpreter
exactly, bit for bit; state is written back in a ``finally`` block, so
counters and registers are consistent once the generator is exhausted
or closed.  (While it is *suspended* the write-back has not happened
yet — the one observable difference from the interpreter's live shared
state.)

Programs containing ``JR`` (indirect jumps) are not specialized:
:func:`repro.isa.codegen.supports` reports them unsupported and
:func:`repro.isa.codegen.make_trace_source` keeps them on the
interpreter.
"""

from __future__ import annotations

from ...errors import UnsupportedProgramError
from ...memory.address import INSTRUCTION_BYTES, TEXT_BASE
from ...params import DOUBLE_SIZE, WORD_SIZE
from ..opcodes import OP_CLASS, Opcode
from ..registers import ZERO

_U64 = (1 << 64) - 1

#: Ops whose effect is ``rd = a <op> b`` on register sources (integer
#: and floating point share Python's operators).
_BINOPS = {
    Opcode.ADD: "+", Opcode.SUB: "-", Opcode.AND: "&", Opcode.OR: "|",
    Opcode.XOR: "^", Opcode.FADD: "+", Opcode.FSUB: "-", Opcode.FMUL: "*",
}

#: Ops whose effect is ``rd = a <op> imm``.
_IMM_BINOPS = {
    Opcode.ADDI: "+", Opcode.ANDI: "&", Opcode.ORI: "|", Opcode.XORI: "^",
}

#: Conditional branches and their Python comparison operator.
_COND_OPS = {
    Opcode.BEQ: "==", Opcode.BNE: "!=", Opcode.BLT: "<",
    Opcode.BGE: ">=", Opcode.BLE: "<=", Opcode.BGT: ">",
}

# Indentation levels of the generated function.
_I1 = "    "            # function body
_I2 = _I1 * 2           # try body
_I3 = _I1 * 3           # while body (block guards)
_I4 = _I1 * 4           # block body (one instruction's statements)
_I5 = _I1 * 5           # nested suite (branch jump, limit return)


def _lit(value) -> str:
    """A literal safe to embed in a binary expression."""
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


def emit_source(program) -> str:
    """Return the generated module source for ``program``.

    Deterministic: equal program content emits equal text.
    """
    return _Emitter(program).emit()


class _Emitter:
    def __init__(self, program):
        program.validate()
        self.program = program
        self.instrs = program.instructions
        self.n = len(self.instrs)
        #: srcs tuple -> module-constant name (deduplicated).
        self.srcs_pool: "dict[tuple, str]" = {}
        #: helper names the emitted body actually uses.
        self.uses: "set[str]" = set()

    # ------------------------------------------------------------------
    # Layout: block leaders.
    # ------------------------------------------------------------------
    def _leaders(self) -> "list[int]":
        leaders = {0}
        for index, ins in enumerate(self.instrs):
            op = ins.op
            if op == Opcode.JR:
                raise UnsupportedProgramError(
                    f"cannot specialize {self.program.name!r}: "
                    f"indirect jump (JR) at index {index}")
            if op in _COND_OPS or op in (Opcode.J, Opcode.JAL):
                if 0 <= ins.target < self.n:
                    leaders.add(ins.target)
            if op == Opcode.JAL and index + 1 < self.n:
                leaders.add(index + 1)
        for position in self.program.labels.values():
            if 0 <= position < self.n:
                leaders.add(position)
        return sorted(leaders)

    # ------------------------------------------------------------------
    # Small helpers.
    # ------------------------------------------------------------------
    def _read(self, reg) -> str:
        return "0" if reg is None or reg == ZERO else f"r{reg}"

    def _srcs(self, ins) -> str:
        key = ins.sources()
        name = self.srcs_pool.get(key)
        if name is None:
            name = f"_S{len(self.srcs_pool)}"
            self.srcs_pool[key] = name
        return name

    def _pc(self, index: int) -> int:
        return TEXT_BASE + index * INSTRUCTION_BYTES

    def _record(self, index, ins, addr="None", size=0) -> str:
        """The DynInstr constructor call for one static instruction
        (trailing default arguments omitted)."""
        head = (f"D(seq, {self._pc(index)}, "
                f"{int(OP_CLASS[ins.op])}, {ins.destination()}, "
                f"{self._srcs(ins)}")
        if addr != "None" or size:
            return f"{head}, {addr}, {size})"
        return f"{head})"

    # ------------------------------------------------------------------
    # Architectural effect of one non-control instruction.
    # Returns (lines, addr_expr, size): addr_expr is the address
    # expression (a variable name or literal) for loads/stores, "None"
    # otherwise.
    # ------------------------------------------------------------------
    def _exec_lines(self, index, ins):
        op, rd = ins.op, ins.rd
        writes = rd is not None and rd != ZERO
        a, b = self._read(ins.rs1), self._read(ins.rs2)
        imm = ins.imm
        out: "list[str]" = []

        if op in _BINOPS:
            if writes:
                out.append(f"r{rd} = {a} {_BINOPS[op]} {b}")
        elif op == Opcode.MUL:
            if writes:
                self.uses.add("sgn")
                out.append(f"r{rd} = sgn({a} * {b})")
        elif op in (Opcode.DIV, Opcode.REM):
            what = "divide" if op == Opcode.DIV else "remainder"
            if b == "0":
                out.append(f'raise ExecutionError('
                           f'"{what} by zero at index {index}")')
            else:
                out.append(f"b_ = {b}")
                out.append("if b_ == 0:")
                out.append(f'    raise ExecutionError('
                           f'"{what} by zero at index {index}")')
                if writes:
                    helper = "tdiv" if op == Opcode.DIV else "trem"
                    self.uses.add(helper)
                    out.append(f"r{rd} = {helper}({a}, b_)")
        elif op == Opcode.FDIV:
            if b == "0":
                out.append(f'raise ExecutionError('
                           f'"fp divide by zero at index {index}")')
            else:
                out.append(f"b_ = {b}")
                out.append("if b_ == 0.0:")
                out.append(f'    raise ExecutionError('
                           f'"fp divide by zero at index {index}")')
                if writes:
                    out.append(f"r{rd} = {a} / b_")
        elif op == Opcode.SLL:
            if writes:
                self.uses.add("sgn")
                out.append(f"r{rd} = sgn({a} << ({b} & 63))")
        elif op == Opcode.SRL:
            if writes:
                out.append(f"r{rd} = ({a} & {_U64}) >> ({b} & 63)")
        elif op == Opcode.SRA:
            if writes:
                out.append(f"r{rd} = {a} >> ({b} & 63)")
        elif op in (Opcode.SLT, Opcode.FCLT):
            if writes:
                out.append(f"r{rd} = 1 if {a} < {b} else 0")
        elif op == Opcode.LI:
            if writes:
                out.append(f"r{rd} = {_lit(imm)}")
        elif op in (Opcode.MOV, Opcode.FMOV):
            if writes:
                out.append(f"r{rd} = {a}")
        elif op in _IMM_BINOPS:
            if writes:
                out.append(f"r{rd} = {a} {_IMM_BINOPS[op]} {_lit(imm)}")
        elif op in (Opcode.SLLI, Opcode.SRLI):
            shift = imm & 63
            if writes:
                if op == Opcode.SLLI:
                    self.uses.add("sgn")
                    out.append(f"r{rd} = sgn({a} << {shift})")
                else:
                    out.append(f"r{rd} = ({a} & {_U64}) >> {shift}")
        elif op == Opcode.SLTI:
            if writes:
                out.append(f"r{rd} = 1 if {a} < {_lit(imm)} else 0")
        elif op == Opcode.FNEG:
            if writes:
                out.append(f"r{rd} = -{a}")
        elif op == Opcode.CVTIF:
            if writes:
                out.append(f"r{rd} = float({a})")
        elif op == Opcode.CVTFI:
            if writes:
                out.append(f"r{rd} = int({a})")
        elif op in (Opcode.LW, Opcode.LB, Opcode.LD):
            return self._emit_load(index, ins, writes)
        elif op in (Opcode.SW, Opcode.SB, Opcode.SD):
            return self._emit_store(index, ins)
        elif op == Opcode.NOP:
            pass
        else:  # pragma: no cover - control ops handled by _emit_instr
            raise UnsupportedProgramError(
                f"cannot specialize opcode {op.name} at index {index}")
        return out, "None", 0

    def _access_size(self, op) -> int:
        if op in (Opcode.LW, Opcode.SW):
            return WORD_SIZE
        if op in (Opcode.LD, Opcode.SD):
            return DOUBLE_SIZE
        return 1

    def _emit_load(self, index, ins, writes):
        op = ins.op
        size = self._access_size(op)
        default = "0.0" if op == Opcode.LD else "0"
        out: "list[str]" = []
        base = self._read(ins.rs1)
        imm = ins.imm or 0
        if base == "0":
            # Absolute address: fold the cache-index/alignment math away.
            addr = str(imm)
            if size > 1 and imm & (size - 1):
                out.append(f'raise ExecutionError("unaligned load of '
                           f'{size} at {imm:#x} (index {index})")')
            if writes:
                self.uses.add("mget")
                out.append(f"r{ins.rd} = mget({imm}, {default})")
            out.append("loads += 1")
        else:
            addr = "addr"
            rhs = base if imm == 0 else f"{base} + {_lit(imm)}"
            out.append(f"addr = {rhs}")
            if size > 1:
                out.append(f"if addr & {size - 1}:")
                out.append('    raise ExecutionError(f"unaligned load of '
                           '%d at {addr:#x} (index %d)")' % (size, index))
            if writes:
                self.uses.add("mget")
                out.append(f"r{ins.rd} = mget(addr, {default})")
            out.append("loads += 1")
        self.uses.add("loads")
        return out, addr, size

    def _emit_store(self, index, ins):
        op = ins.op
        size = self._access_size(op)
        value = self._read(ins.rs2)
        if op == Opcode.SB:
            value = f"{value} & 255"
        out: "list[str]" = []
        base = self._read(ins.rs1)
        imm = ins.imm or 0
        self.uses.add("memory")
        if base == "0":
            addr = str(imm)
            if size > 1 and imm & (size - 1):
                out.append(f'raise ExecutionError("unaligned store of '
                           f'{size} at {imm:#x} (index {index})")')
            out.append(f"memory[{imm}] = {value}")
        else:
            addr = "addr"
            rhs = base if imm == 0 else f"{base} + {_lit(imm)}"
            out.append(f"addr = {rhs}")
            if size > 1:
                out.append(f"if addr & {size - 1}:")
                out.append('    raise ExecutionError(f"unaligned store of '
                           '%d at {addr:#x} (index %d)")' % (size, index))
            out.append(f"memory[addr] = {value}")
        out.append("stores += 1")
        self.uses.add("stores")
        return out, addr, size

    # ------------------------------------------------------------------
    # One instruction (limit check, effect, record, count).
    # ------------------------------------------------------------------
    def _emit_instr(self, index, block_of) -> "list[str]":
        ins = self.instrs[index]
        op = ins.op
        out = [f"{_I4}if seq >= limit:", f"{_I5}return"]

        if op in _COND_OPS:
            out.extend(self._emit_branch(index, ins, block_of))
            return out
        if op in (Opcode.J, Opcode.JAL):
            if op == Opcode.JAL and ins.rd is not None and ins.rd != ZERO:
                link = self._pc(index + 1)
                out.append(f"{_I4}r{ins.rd} = {link}")
            out.append(f"{_I4}yield {self._record(index, ins)}")
            out.append(f"{_I4}seq += 1")
            out.append(f"{_I4}bi = {block_of[ins.target]}")
            out.append(f"{_I4}continue")
            return out
        if op == Opcode.HALT:
            out.append(f"{_I4}halted = True")
            out.append(f"{_I4}state.halted = True")
            out.append(f"{_I4}seq += 1")
            record = self._record(index, ins)
            out.append(f"{_I4}yield {record.replace('seq', 'seq - 1', 1)}")
            out.append(f"{_I4}return")
            return out

        effect, addr, size = self._exec_lines(index, ins)
        out.extend(_I4 + line for line in effect)
        out.append(f"{_I4}yield {self._record(index, ins, addr, size)}")
        out.append(f"{_I4}seq += 1")
        return out

    def _emit_branch(self, index, ins, block_of) -> "list[str]":
        """A branch's record is the same whichever way it goes, and its
        condition has no side effects, so the test follows the yield."""
        out = [f"{_I4}yield {self._record(index, ins)}", f"{_I4}seq += 1"]
        target = ins.target
        if target != index + 1:
            # A branch to the fall-through path needs no test.
            cond = (f"{self._read(ins.rs1)} {_COND_OPS[ins.op]} "
                    f"{self._read(ins.rs2)}")
            out.append(f"{_I4}if {cond}:")
            out.append(f"{_I5}bi = {block_of[target]}")
            out.append(f"{_I5}continue")
        return out

    # ------------------------------------------------------------------
    # Whole-module assembly.
    # ------------------------------------------------------------------
    def _falls_through(self, ins) -> bool:
        return ins.op not in (Opcode.J, Opcode.JAL, Opcode.JR, Opcode.HALT)

    def emit(self) -> str:
        leaders = self._leaders()
        block_of = {idx: k for k, idx in enumerate(leaders)}
        terminal = len(leaders)
        block_of[self.n] = terminal

        body: "list[str]" = []
        for k, leader in enumerate(leaders):
            end = leaders[k + 1] if k + 1 < len(leaders) else self.n
            body.append(f"{_I3}if bi == {k}:")
            for index in range(leader, end):
                body.extend(self._emit_instr(index, block_of))
            if self._falls_through(self.instrs[end - 1]):
                body.append(f"{_I4}bi = {block_of[end]}")
        body.append(f"{_I3}if bi == {terminal}:")
        body.append(f"{_I4}if seq >= limit:")
        body.append(f"{_I5}return")
        body.append(f'{_I4}raise ExecutionError('
                    f'"fell off program at index {self.n}")')
        body.append(f'{_I3}raise RuntimeError('
                    f'"codegen dispatch corrupted: bi=%r" % (bi,))')

        return "\n".join(self._header() + self._prologue() + body
                         + self._epilogue()) + "\n"

    def _referenced_registers(self):
        read, written = set(), set()
        for ins in self.instrs:
            if ins.rs1 is not None and ins.rs1 != ZERO:
                read.add(ins.rs1)
            if ins.rs2 is not None and ins.rs2 != ZERO:
                read.add(ins.rs2)
            if ins.rd is not None and ins.rd != ZERO:
                written.add(ins.rd)
        return sorted(read | written), sorted(written)

    def _header(self) -> "list[str]":
        name = self.program.name or "<anonymous>"
        lines = [
            '"""Generated by repro.isa.codegen; do not edit.',
            "",
            f"program: {name} ({self.n} instructions)",
            '"""',
        ]
        for key, const in self.srcs_pool.items():
            lines.append(f"{const} = {key!r}")
        return lines

    def _prologue(self) -> "list[str]":
        uses = self.uses
        lines = ["", "", "def step(state, limit):"]
        lines.append(f"{_I1}if state.halted:")
        lines.append(f"{_I2}return")
        referenced, _ = self._referenced_registers()
        if referenced:
            lines.append(f"{_I1}regs = state.registers")
            for reg in referenced:
                lines.append(f"{_I1}r{reg} = regs[{reg}]")
        if "memory" in uses or "mget" in uses:
            lines.append(f"{_I1}memory = state.memory")
        if "mget" in uses:
            lines.append(f"{_I1}mget = memory.get")
        lines.append(f"{_I1}D = DynInstr")
        if "sgn" in uses:
            lines.append(f"{_I1}sgn = _to_signed")
        if "tdiv" in uses:
            lines.append(f"{_I1}tdiv = _trunc_div")
        if "trem" in uses:
            lines.append(f"{_I1}trem = _trunc_rem")
        if "loads" in uses:
            lines.append(f"{_I1}loads = 0")
        if "stores" in uses:
            lines.append(f"{_I1}stores = 0")
        lines.append(f"{_I1}halted = False")
        lines.append(f"{_I1}seq = 0")
        lines.append(f"{_I1}bi = 0")
        lines.append(f"{_I1}try:")
        lines.append(f"{_I2}while True:")
        return lines

    def _epilogue(self) -> "list[str]":
        lines = [f"{_I1}finally:"]
        lines.append(f"{_I2}state.instructions_executed += seq")
        if "loads" in self.uses:
            lines.append(f"{_I2}state.loads += loads")
        if "stores" in self.uses:
            lines.append(f"{_I2}state.stores += stores")
        lines.append(f"{_I2}if halted:")
        lines.append(f"{_I3}state.halted = True")
        _, written = self._referenced_registers()
        for reg in written:
            lines.append(f"{_I2}regs[{reg}] = r{reg}")
        return lines
