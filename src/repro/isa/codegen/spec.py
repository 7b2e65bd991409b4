"""The specialization contract: which config knobs the generated code folds.

A :class:`CodegenSpec` names every front-end-visible knob that gets
baked into a generated stepper as source-text constants.  Two runs whose
(program digest, spec) pairs match may share one compiled module — the
spec *is* the config digest of the memoization key, so anything the
emitter folds **must** live here (a knob folded silently would let two
different specializations alias one cache slot).

The interpreter reads the same knobs dynamically
(:data:`repro.memory.address.INSTRUCTION_BYTES`,
:data:`repro.params.WORD_SIZE`, :data:`repro.params.DOUBLE_SIZE`), so
the defaults reproduce it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import ConfigError, ReproError
from ...memory.address import INSTRUCTION_BYTES
from ...params import DOUBLE_SIZE, WORD_SIZE

#: The three stepper shapes the emitter knows how to generate, mirroring
#: the interpreter's public run modes.
GRAINS = ("trace", "run", "memrefs")


class UnsupportedProgramError(ReproError):
    """The program cannot be specialized (size cap or indirect jumps).

    Raised when :class:`~repro.isa.codegen.CompiledExecution` or the
    emitter is handed such a program directly;
    :func:`~repro.isa.codegen.make_execution` falls back to the
    interpreter instead.
    """


@dataclass(frozen=True)
class CodegenSpec:
    """Everything a generated stepper is specialized on, besides the
    program itself.

    ``grain`` selects the stepper shape: ``"trace"`` yields
    :class:`~repro.isa.trace.DynInstr` records (the timing models'
    input), ``"run"`` is a records-free plain function (fastest
    functional execution), ``"memrefs"`` yields bare
    :class:`~repro.isa.trace.MemRef` records for the cache-filter
    studies — with ``include_ifetch`` folded at generation time, so a
    data-only stream never even tests a flag per instruction.
    """

    grain: str = "trace"
    #: ``memrefs`` grain only: emit per-instruction IFETCH references.
    include_ifetch: bool = True
    #: Bytes per instruction — the PC stride and IFETCH access size,
    #: folded into every record as a literal.
    instruction_bytes: int = INSTRUCTION_BYTES
    #: LW/SW access bytes; also each static access's alignment mask.
    word_size: int = WORD_SIZE
    #: LD/SD access bytes.
    double_size: int = DOUBLE_SIZE

    def __post_init__(self) -> None:
        if self.grain not in GRAINS:
            raise ConfigError(
                f"codegen grain must be one of {GRAINS}, got {self.grain!r}")
        for name in ("instruction_bytes", "word_size", "double_size"):
            value = getattr(self, name)
            if not (isinstance(value, int) and value >= 1
                    and (value & (value - 1)) == 0):
                raise ConfigError(f"{name} must be a power-of-two int")
