"""Unit tests for the Program container."""

import pytest

from repro.errors import AssemblyError
from repro.isa import ProgramBuilder
from repro.memory.address import (
    GLOBAL_BASE,
    HEAP_BASE,
    INSTRUCTION_BYTES,
    Segment,
)


def _tiny_program():
    b = ProgramBuilder("tiny")
    b.alloc_global("g", 100)
    b.alloc_heap("h", 200)
    b.li("r1", 1)
    b.halt()
    return b.build()


def test_segment_sizes_reflect_allocations():
    program = _tiny_program()
    assert program.text_bytes == 2 * INSTRUCTION_BYTES
    assert program.global_bytes >= 100
    assert program.heap_bytes >= 200


def test_segment_extents_cover_allocations():
    program = _tiny_program()
    extents = program.segment_extents()
    lo, hi = extents[Segment.GLOBAL]
    assert lo == GLOBAL_BASE and hi >= GLOBAL_BASE + 100
    lo, hi = extents[Segment.HEAP]
    assert lo == HEAP_BASE and hi >= HEAP_BASE + 200
    lo, hi = extents[Segment.STACK]
    assert hi - lo == 64 * 1024


def test_label_resolution_to_index():
    b = ProgramBuilder()
    b.li("r1", 0)
    b.label("there")
    b.halt()
    b.j("there")
    program = b.build()
    assert program.instructions[2].target == 1


def test_validate_rejects_no_halt():
    b = ProgramBuilder()
    b.nop()
    with pytest.raises(AssemblyError):
        b.build()


def test_repr_mentions_name_and_sizes():
    text = repr(_tiny_program())
    assert "tiny" in text and "instrs" in text
