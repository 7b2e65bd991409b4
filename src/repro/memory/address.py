"""Address-space constants and helpers shared by the whole simulator.

The simulated machine uses a flat 31-bit physical address space divided
into the four segments the paper's Table 2 reports replication for:
program text, global data, heap, and stack.
"""

from __future__ import annotations

from enum import Enum


class Segment(Enum):
    """The four address-space segments tracked by the paper."""

    TEXT = "text"
    GLOBAL = "global"
    HEAP = "heap"
    STACK = "stack"


#: Base address of the program text segment.
TEXT_BASE = 0x0040_0000
#: Base address of the global (static data) segment.
GLOBAL_BASE = 0x1000_0000
#: Base address of the heap segment.
HEAP_BASE = 0x4000_0000
#: Stack top; the stack grows toward lower addresses.
STACK_TOP = 0x7FFF_F000
#: Lowest address considered part of the stack segment.
STACK_BASE = 0x7000_0000

#: Bytes occupied by one instruction in the text segment.
INSTRUCTION_BYTES = 4

_SEGMENT_BOUNDS = (
    (Segment.TEXT, TEXT_BASE, GLOBAL_BASE),
    (Segment.GLOBAL, GLOBAL_BASE, HEAP_BASE),
    (Segment.HEAP, HEAP_BASE, STACK_BASE),
    (Segment.STACK, STACK_BASE, STACK_TOP),
)


def segment_of(address: int) -> Segment:
    """Classify ``address`` into one of the four segments."""
    for segment, low, high in _SEGMENT_BOUNDS:
        if low <= address < high:
            return segment
    raise ValueError(f"address {address:#x} falls outside every segment")


def page_number(address: int, page_size: int) -> int:
    """Return the page number containing ``address``."""
    return address // page_size
