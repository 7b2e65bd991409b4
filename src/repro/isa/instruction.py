"""The static instruction representation shared by builder and assembler."""

from __future__ import annotations

from .opcodes import OP_CLASS
from . import registers


class Instruction:
    """One static instruction.

    Fields use register encodings (see :mod:`repro.isa.registers`).  For
    branches, ``target`` holds a label name until the program is finalized,
    after which it holds the absolute instruction index.
    """

    __slots__ = ("op", "rd", "rs1", "rs2", "imm", "target")

    def __init__(self, op, rd=None, rs1=None, rs2=None, imm=None, target=None):
        self.op = op
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.target = target

    @property
    def op_class(self):
        """Scheduling class of this instruction."""
        return OP_CLASS[self.op]

    def sources(self) -> "tuple[int, ...]":
        """Logical source registers (zero register excluded)."""
        srcs = []
        if self.rs1 is not None and self.rs1 != registers.ZERO:
            srcs.append(self.rs1)
        if self.rs2 is not None and self.rs2 != registers.ZERO:
            srcs.append(self.rs2)
        return tuple(srcs)

    def destination(self):
        """Logical destination register, or ``None``."""
        if self.rd is None or self.rd == registers.ZERO:
            return None
        return self.rd

    def __repr__(self) -> str:
        parts = [self.op.name.lower()]
        if self.rd is not None:
            parts.append(registers.decode(self.rd))
        if self.rs1 is not None:
            parts.append(registers.decode(self.rs1))
        if self.rs2 is not None:
            parts.append(registers.decode(self.rs2))
        if self.imm is not None:
            parts.append(str(self.imm))
        if self.target is not None:
            parts.append(f"->{self.target}")
        return f"<{' '.join(parts)}>"
