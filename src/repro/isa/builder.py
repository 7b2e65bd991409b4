"""A small embedded DSL for authoring programs in the simulated ISA.

Workloads are written against :class:`ProgramBuilder`, which exposes one
method per opcode plus structured-control helpers (counted loops, generic
condition loops, if-blocks) and static data allocation in the global and
heap segments.  ``build()`` finalizes everything into a
:class:`~repro.isa.program.Program`.

Example::

    b = ProgramBuilder("sum")
    arr = b.alloc_global_words("arr", 64, init=range(64))
    b.li("r1", arr)
    b.li("r2", 0)                 # sum
    with b.repeat(64, "r3"):
        b.lw("r4", "r1", 0)
        b.add("r2", "r2", "r4")
        b.addi("r1", "r1", 4)
    b.halt()
    program = b.build()
"""

from __future__ import annotations

from contextlib import contextmanager

from ..errors import AssemblyError
from ..memory.address import GLOBAL_BASE, HEAP_BASE
from .instruction import Instruction
from .opcodes import Opcode
from .program import Program
from .registers import encode

_COND_INVERSE = {
    "eq": Opcode.BNE,
    "ne": Opcode.BEQ,
    "lt": Opcode.BGE,
    "ge": Opcode.BLT,
    "le": Opcode.BGT,
    "gt": Opcode.BLE,
}


def _reg(name) -> int:
    """Accept either a register name or an already-encoded register."""
    if isinstance(name, int):
        return name
    return encode(name)


class ProgramBuilder:
    """Accumulates instructions, labels, and data for one program."""

    def __init__(self, name: str = "program"):
        self.name = name
        self._instructions: "list[Instruction]" = []
        self._labels: "dict[str, int]" = {}
        self._data: "dict[int, object]" = {}
        self._global_top = GLOBAL_BASE
        self._heap_top = HEAP_BASE
        self._globals: "dict[str, int]" = {}
        self._unique = 0

    # ------------------------------------------------------------------
    # Data allocation.
    # ------------------------------------------------------------------
    def alloc_global(self, name: str, nbytes: int, align: int = 8) -> int:
        """Reserve ``nbytes`` in the global segment; returns base address."""
        return self._alloc("global", name, nbytes, align)

    def alloc_heap(self, name: str, nbytes: int, align: int = 8) -> int:
        """Reserve ``nbytes`` in the heap segment; returns base address."""
        return self._alloc("heap", name, nbytes, align)

    def _alloc(self, segment: str, name: str, nbytes: int, align: int) -> int:
        if nbytes <= 0:
            raise AssemblyError(f"allocation {name!r} must be positive-sized")
        if name in self._globals:
            raise AssemblyError(f"duplicate allocation name {name!r}")
        if segment == "global":
            top = self._global_top
        else:
            top = self._heap_top
        base = (top + align - 1) & ~(align - 1)
        new_top = base + nbytes
        if segment == "global":
            self._global_top = new_top
        else:
            self._heap_top = new_top
        self._globals[name] = base
        return base

    def address_of(self, name: str) -> int:
        """Base address of a named allocation."""
        if name not in self._globals:
            raise AssemblyError(f"unknown allocation {name!r}")
        return self._globals[name]

    def init_word(self, address: int, value: int) -> None:
        """Place a 4-byte integer in the initial memory image."""
        self._data[address] = int(value)

    def init_byte(self, address: int, value: int) -> None:
        """Place a single byte in the initial memory image."""
        self._data[address] = int(value) & 0xFF

    def init_double(self, address: int, value: float) -> None:
        """Place an 8-byte float in the initial memory image."""
        self._data[address] = float(value)

    def alloc_global_words(self, name: str, count: int, init=None) -> int:
        """Allocate ``count`` words in the global segment, optionally
        initializing them from the iterable ``init``."""
        base = self.alloc_global(name, count * 4, align=8)
        if init is not None:
            for offset, value in enumerate(init):
                if offset >= count:
                    raise AssemblyError(f"initializer for {name!r} too long")
                self.init_word(base + 4 * offset, value)
        return base

    # ------------------------------------------------------------------
    # Labels and raw emission.
    # ------------------------------------------------------------------
    def label(self, name: str) -> str:
        """Bind ``name`` to the next instruction index."""
        if name in self._labels:
            raise AssemblyError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)
        return name

    def fresh_label(self, stem: str = "L") -> str:
        """Return a unique, not-yet-bound label name."""
        self._unique += 1
        return f"__{stem}_{self._unique}"

    def emit(self, instr: Instruction) -> None:
        """Append a raw instruction."""
        self._instructions.append(instr)

    @property
    def here(self) -> int:
        """Index the next emitted instruction will occupy."""
        return len(self._instructions)

    # ------------------------------------------------------------------
    # Integer ALU.
    # ------------------------------------------------------------------
    def _rrr(self, op, rd, rs1, rs2) -> None:
        self.emit(Instruction(op, rd=_reg(rd), rs1=_reg(rs1), rs2=_reg(rs2)))

    def _rri(self, op, rd, rs1, imm) -> None:
        self.emit(Instruction(op, rd=_reg(rd), rs1=_reg(rs1), imm=int(imm)))

    def add(self, rd, rs1, rs2):
        self._rrr(Opcode.ADD, rd, rs1, rs2)

    def sub(self, rd, rs1, rs2):
        self._rrr(Opcode.SUB, rd, rs1, rs2)

    def mul(self, rd, rs1, rs2):
        self._rrr(Opcode.MUL, rd, rs1, rs2)

    def div(self, rd, rs1, rs2):
        self._rrr(Opcode.DIV, rd, rs1, rs2)

    def rem(self, rd, rs1, rs2):
        self._rrr(Opcode.REM, rd, rs1, rs2)

    def and_(self, rd, rs1, rs2):
        self._rrr(Opcode.AND, rd, rs1, rs2)

    def or_(self, rd, rs1, rs2):
        self._rrr(Opcode.OR, rd, rs1, rs2)

    def xor(self, rd, rs1, rs2):
        self._rrr(Opcode.XOR, rd, rs1, rs2)

    def sll(self, rd, rs1, rs2):
        self._rrr(Opcode.SLL, rd, rs1, rs2)

    def srl(self, rd, rs1, rs2):
        self._rrr(Opcode.SRL, rd, rs1, rs2)

    def sra(self, rd, rs1, rs2):
        self._rrr(Opcode.SRA, rd, rs1, rs2)

    def slt(self, rd, rs1, rs2):
        self._rrr(Opcode.SLT, rd, rs1, rs2)

    def addi(self, rd, rs1, imm):
        self._rri(Opcode.ADDI, rd, rs1, imm)

    def andi(self, rd, rs1, imm):
        self._rri(Opcode.ANDI, rd, rs1, imm)

    def ori(self, rd, rs1, imm):
        self._rri(Opcode.ORI, rd, rs1, imm)

    def xori(self, rd, rs1, imm):
        self._rri(Opcode.XORI, rd, rs1, imm)

    def slli(self, rd, rs1, imm):
        self._rri(Opcode.SLLI, rd, rs1, imm)

    def srli(self, rd, rs1, imm):
        self._rri(Opcode.SRLI, rd, rs1, imm)

    def slti(self, rd, rs1, imm):
        self._rri(Opcode.SLTI, rd, rs1, imm)

    def li(self, rd, imm):
        self.emit(Instruction(Opcode.LI, rd=_reg(rd), imm=int(imm)))

    def mov(self, rd, rs1):
        self.emit(Instruction(Opcode.MOV, rd=_reg(rd), rs1=_reg(rs1)))

    # ------------------------------------------------------------------
    # Memory.
    # ------------------------------------------------------------------
    def lw(self, rd, base, offset=0):
        self.emit(Instruction(Opcode.LW, rd=_reg(rd), rs1=_reg(base),
                              imm=int(offset)))

    def lb(self, rd, base, offset=0):
        self.emit(Instruction(Opcode.LB, rd=_reg(rd), rs1=_reg(base),
                              imm=int(offset)))

    def ld(self, fd, base, offset=0):
        self.emit(Instruction(Opcode.LD, rd=_reg(fd), rs1=_reg(base),
                              imm=int(offset)))

    def sw(self, rs, base, offset=0):
        self.emit(Instruction(Opcode.SW, rs2=_reg(rs), rs1=_reg(base),
                              imm=int(offset)))

    def sb(self, rs, base, offset=0):
        self.emit(Instruction(Opcode.SB, rs2=_reg(rs), rs1=_reg(base),
                              imm=int(offset)))

    def sd(self, fs, base, offset=0):
        self.emit(Instruction(Opcode.SD, rs2=_reg(fs), rs1=_reg(base),
                              imm=int(offset)))

    # ------------------------------------------------------------------
    # Floating point.
    # ------------------------------------------------------------------
    def fadd(self, fd, fs1, fs2):
        self._rrr(Opcode.FADD, fd, fs1, fs2)

    def fsub(self, fd, fs1, fs2):
        self._rrr(Opcode.FSUB, fd, fs1, fs2)

    def fmul(self, fd, fs1, fs2):
        self._rrr(Opcode.FMUL, fd, fs1, fs2)

    def fdiv(self, fd, fs1, fs2):
        self._rrr(Opcode.FDIV, fd, fs1, fs2)

    def fneg(self, fd, fs1):
        self.emit(Instruction(Opcode.FNEG, rd=_reg(fd), rs1=_reg(fs1)))

    def fmov(self, fd, fs1):
        self.emit(Instruction(Opcode.FMOV, rd=_reg(fd), rs1=_reg(fs1)))

    def fclt(self, rd, fs1, fs2):
        self._rrr(Opcode.FCLT, rd, fs1, fs2)

    def cvtif(self, fd, rs1):
        self.emit(Instruction(Opcode.CVTIF, rd=_reg(fd), rs1=_reg(rs1)))

    def cvtfi(self, rd, fs1):
        self.emit(Instruction(Opcode.CVTFI, rd=_reg(rd), rs1=_reg(fs1)))

    # ------------------------------------------------------------------
    # Control flow.
    # ------------------------------------------------------------------
    def _branch(self, op, rs1, rs2, target: str) -> None:
        self.emit(Instruction(op, rs1=_reg(rs1), rs2=_reg(rs2), target=target))

    def beq(self, rs1, rs2, target):
        self._branch(Opcode.BEQ, rs1, rs2, target)

    def bne(self, rs1, rs2, target):
        self._branch(Opcode.BNE, rs1, rs2, target)

    def blt(self, rs1, rs2, target):
        self._branch(Opcode.BLT, rs1, rs2, target)

    def bge(self, rs1, rs2, target):
        self._branch(Opcode.BGE, rs1, rs2, target)

    def ble(self, rs1, rs2, target):
        self._branch(Opcode.BLE, rs1, rs2, target)

    def bgt(self, rs1, rs2, target):
        self._branch(Opcode.BGT, rs1, rs2, target)

    def j(self, target):
        self.emit(Instruction(Opcode.J, target=target))

    def jal(self, target, link="r31"):
        self.emit(Instruction(Opcode.JAL, rd=_reg(link), target=target))

    def jr(self, rs1):
        self.emit(Instruction(Opcode.JR, rs1=_reg(rs1)))

    def call(self, target):
        """Call a subroutine (JAL through ``r31``)."""
        self.jal(target)

    def ret(self):
        """Return from a subroutine (JR through ``r31``)."""
        self.jr("r31")

    def nop(self):
        self.emit(Instruction(Opcode.NOP))

    def halt(self):
        self.emit(Instruction(Opcode.HALT))

    # ------------------------------------------------------------------
    # Structured control helpers.
    # ------------------------------------------------------------------
    @contextmanager
    def repeat(self, count: int, counter):
        """Emit a counted loop that runs ``count`` times.

        ``counter`` is clobbered: initialized to ``count`` and decremented
        each iteration.
        """
        top = self.fresh_label("repeat")
        self.li(counter, count)
        self.label(top)
        yield top
        self.addi(counter, counter, -1)
        self.bgt(counter, "r0", top)

    @contextmanager
    def while_cond(self, cond: str, rs1, rs2):
        """Emit ``while rs1 <cond> rs2`` around the body.

        ``cond`` is one of ``eq ne lt ge le gt``; the condition is tested
        before every iteration.
        """
        if cond not in _COND_INVERSE:
            raise AssemblyError(f"unknown loop condition {cond!r}")
        top = self.fresh_label("while")
        exit_ = self.fresh_label("endwhile")
        self.label(top)
        self._branch(_COND_INVERSE[cond], rs1, rs2, exit_)
        yield top
        self.j(top)
        self.label(exit_)

    @contextmanager
    def if_cond(self, cond: str, rs1, rs2):
        """Emit an if-block guarded by ``rs1 <cond> rs2``."""
        if cond not in _COND_INVERSE:
            raise AssemblyError(f"unknown if condition {cond!r}")
        skip = self.fresh_label("endif")
        self._branch(_COND_INVERSE[cond], rs1, rs2, skip)
        yield
        self.label(skip)

    # ------------------------------------------------------------------
    # Finalization.
    # ------------------------------------------------------------------
    def build(self) -> Program:
        """Finalize into a :class:`Program` and validate it."""
        program = Program(
            instructions=list(self._instructions),
            labels=dict(self._labels),
            data_image=dict(self._data),
            global_top=self._global_top,
            heap_top=self._heap_top,
            name=self.name,
        )
        program.validate()
        return program
