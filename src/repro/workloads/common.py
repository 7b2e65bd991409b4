"""Shared helpers for authoring workload kernels.

Every kernel is a function ``build(scale=1) -> Program`` written against
the :class:`~repro.isa.builder.ProgramBuilder` DSL.  These helpers cover
the recurring idioms: 2D/3D array indexing, in-register linear
congruential "input data", and checksum plumbing so tests can verify a
kernel computes something deterministic.
"""

from __future__ import annotations

from ..isa.builder import ProgramBuilder
from ..obs.spans import span

#: (name, scale) -> assembled Program.  Kernels are pure functions of
#: their scale and Programs are immutable after assembly (branch targets
#: resolve once, inside ``ProgramBuilder.build``), so one build can be
#: shared by every system that executes it — Figure 7 already runs five
#: systems over one Program per benchmark.
_PROGRAM_CACHE: "dict[tuple[str, int], object]" = {}


def shared_program(name: str, scale: int, builder):
    """Memoize ``builder()`` under ``(name, scale)``.

    All program construction funnels through here (via
    :meth:`repro.workloads.Workload.build`), so a sweep that touches the
    same benchmark at the same scale dozens of times assembles it once
    per process.
    """
    key = (name, scale)
    program = _PROGRAM_CACHE.get(key)
    if program is None:
        # Only actual builds are charged to the program-build phase;
        # memoized lookups cost (and record) nothing.
        with span("program-build"):
            program = builder()
        _PROGRAM_CACHE[key] = program
    return program


def clear_program_cache() -> None:
    """Drop every memoized program (tests; memory-pressure escape hatch)."""
    _PROGRAM_CACHE.clear()


#: Multiplier/increment of the in-register LCG (Numerical Recipes').
LCG_MULT = 1664525
LCG_INC = 1013904223
LCG_MASK = 0xFFFFFFFF


def lcg_step(b: ProgramBuilder, reg: str, tmp: str) -> None:
    """Advance the 32-bit LCG state held in ``reg`` (clobbers ``tmp``)."""
    b.li(tmp, LCG_MULT)
    b.mul(reg, reg, tmp)
    b.addi(reg, reg, LCG_INC)
    b.li(tmp, LCG_MASK)
    b.and_(reg, reg, tmp)


def checksum_slot(b: ProgramBuilder) -> int:
    """Allocate the conventional 8-byte checksum slot."""
    return b.alloc_global("checksum", 8)


def store_checksum(b: ProgramBuilder, addr: int, reg: str,
                   tmp: str = "r26") -> None:
    """Store an integer checksum register to the checksum slot."""
    b.li(tmp, addr)
    b.sw(reg, tmp, 0)


def store_checksum_fp(b: ProgramBuilder, addr: int, freg: str,
                      tmp: str = "r26") -> None:
    """Store a floating-point checksum register to the checksum slot."""
    b.li(tmp, addr)
    b.sd(freg, tmp, 0)


def init_double_array(b: ProgramBuilder, base: int, count: int,
                      fn=lambda i: (i % 17) * 0.25 + 1.0) -> None:
    """Fill a double array in the initial memory image."""
    for index in range(count):
        b.init_double(base + 8 * index, fn(index))


def init_word_array(b: ProgramBuilder, base: int, count: int,
                    fn=lambda i: (i * 2654435761) & 0x7FFFFFFF) -> None:
    """Fill a word array in the initial memory image."""
    for index in range(count):
        b.init_word(base + 4 * index, fn(index))
