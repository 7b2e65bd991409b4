"""Program container: instructions, labels, and initial memory image."""

from __future__ import annotations

from ..errors import AssemblyError
from ..memory.address import (
    GLOBAL_BASE,
    HEAP_BASE,
    INSTRUCTION_BYTES,
    STACK_BASE,
    TEXT_BASE,
)
from .instruction import Instruction
from .opcodes import Opcode


class Program:
    """A finalized program ready for interpretation.

    A program owns its static instruction list, resolved branch targets,
    an initial data image (address -> value), and bookkeeping about how
    much of each segment it allocated (used by the address-space layout
    logic to size the distributed memory).
    """

    def __init__(
        self,
        instructions: "list[Instruction]",
        labels: "dict[str, int]",
        data_image: "dict[int, object]",
        global_top: int = GLOBAL_BASE,
        heap_top: int = HEAP_BASE,
        name: str = "program",
    ):
        self.instructions = instructions
        self.labels = dict(labels)
        self.data_image = dict(data_image)
        self.global_top = global_top
        self.heap_top = heap_top
        self.name = name
        self._resolve_targets()

    def _resolve_targets(self) -> None:
        """Replace label-name targets with absolute instruction indexes."""
        for index, instr in enumerate(self.instructions):
            if isinstance(instr.target, str):
                if instr.target not in self.labels:
                    raise AssemblyError(
                        f"undefined label {instr.target!r} at instruction "
                        f"{index} of {self.name}"
                    )
                instr.target = self.labels[instr.target]
        for label, where in self.labels.items():
            if not 0 <= where <= len(self.instructions):
                raise AssemblyError(
                    f"label {label!r} resolves outside program {self.name}"
                )

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def text_bytes(self) -> int:
        """Size of the text segment in bytes."""
        return len(self.instructions) * INSTRUCTION_BYTES

    @property
    def global_bytes(self) -> int:
        """Bytes allocated in the global segment."""
        return self.global_top - GLOBAL_BASE

    @property
    def heap_bytes(self) -> int:
        """Bytes allocated in the heap segment."""
        return self.heap_top - HEAP_BASE

    def segment_extents(self, stack_bytes: int = 64 * 1024) -> "dict":
        """Half-open address ranges actually used by this program.

        ``stack_bytes`` bounds the stack region attributed to the program,
        since stack growth is dynamic.
        """
        from ..memory.address import STACK_TOP, Segment

        return {
            Segment.TEXT: (TEXT_BASE, TEXT_BASE + max(self.text_bytes, 1)),
            Segment.GLOBAL: (GLOBAL_BASE, GLOBAL_BASE + max(self.global_bytes, 1)),
            Segment.HEAP: (HEAP_BASE, HEAP_BASE + max(self.heap_bytes, 1)),
            Segment.STACK: (max(STACK_BASE, STACK_TOP - stack_bytes), STACK_TOP),
        }

    def validate(self) -> None:
        """Sanity-check the program; raises :class:`AssemblyError`."""
        if not self.instructions:
            raise AssemblyError(f"program {self.name} has no instructions")
        if not any(i.op is Opcode.HALT for i in self.instructions):
            raise AssemblyError(f"program {self.name} never halts")
        for index, instr in enumerate(self.instructions):
            if isinstance(instr.target, str):
                raise AssemblyError(
                    f"unresolved target at instruction {index} of {self.name}"
                )

    def __repr__(self) -> str:
        return (
            f"<Program {self.name}: {len(self.instructions)} instrs, "
            f"{self.global_bytes}B global, {self.heap_bytes}B heap>"
        )
