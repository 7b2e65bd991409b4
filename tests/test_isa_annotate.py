"""Tests for the producer and forwarding-store seqs that
`Interpreter.trace` puts on each record.

Those seqs replace two per-node scans of the timing model — the last
writer of each source register and the youngest earlier store a load
overlaps — with seqs computed once per record.  These tests hold them
to both scans, kept here as brute-force references, reading each
record's destination and source registers from the static
instruction it executed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Interpreter, ProgramBuilder
from repro.isa.opcodes import OpClass
from repro.memory.address import INSTRUCTION_BYTES, TEXT_BASE
from repro.workloads import build_program

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)

#: Bytes of the generated programs' buffer: small enough that stores
#: and loads of different sizes overlap partially and alias bytes
#: within a word.
SPAN = 64
#: The buffer's base register, written only by the program's first
#: instruction.
BASE = "r7"
_INT = tuple(f"r{n}" for n in range(1, 7))
_FP = ("f1", "f2", "f3")
_ALU = ("add", "sub", "and_", "xor", "slt", "mul")
#: Memory builder method -> access size.
_MEM = {"lb": 1, "lw": 4, "sb": 1, "sw": 4, "ld": 8, "sd": 8}


def _static(program, dyn):
    """The static instruction ``dyn`` executed."""
    return program.instructions[(dyn.pc - TEXT_BASE) // INSTRUCTION_BYTES]


def _last_writer_deps(records, program):
    """Per record, the seqs of its sources' last writers."""
    writer = {}
    expected = []
    for dyn in records:
        instr = _static(program, dyn)
        expected.append([writer[src] for src in instr.sources()
                         if src in writer])
        if instr.destination() is not None:
            writer[instr.destination()] = dyn.seq
    return expected


def _scanned_fwd(records, index):
    """The youngest earlier store overlapping load ``index`` — the
    reverse scan of the deleted ``LSQ.forwarding_store``, over the whole
    stream instead of one node's queue."""
    load = records[index]
    lo, hi = load.addr, load.addr + load.size
    for dyn in reversed(records[:index]):
        if dyn.op_class == _STORE and dyn.addr < hi \
                and lo < dyn.addr + dyn.size:
            return dyn.seq
    return -1


def _assert_matches_scans(records, program):
    for index, (dyn, deps) in enumerate(
            zip(records, _last_writer_deps(records, program))):
        assert list(dyn.deps) == deps
        if dyn.op_class == _LOAD:
            assert dyn.fwd == _scanned_fwd(records, index)
        else:
            assert dyn.fwd == -1


def _buffer_program(body):
    """A program whose ``body(b)`` addresses a :data:`SPAN`-byte global
    buffer of int words through :data:`BASE`."""
    b = ProgramBuilder()
    buf = b.alloc_global_words("buf", SPAN // 4, init=range(SPAN // 4))
    b.li(BASE, buf)
    body(b)
    b.halt()
    return b.build()


@st.composite
def _programs(draw):
    """Straight-line programs: ALU operations on r1–r6 (a repeated
    source included), LB/LW/SB/SW on r1–r6 and LD/SD on f1–f3 at
    aligned offsets of the buffer."""
    ops = []
    for _ in range(draw(st.integers(1, 60))):
        op = draw(st.sampled_from(_ALU + tuple(_MEM)))
        if op in _MEM:
            size = _MEM[op]
            reg = draw(st.sampled_from(_FP if size == 8 else _INT))
            offset = draw(st.integers(0, SPAN // size - 1)) * size
            ops.append((op, reg, BASE, offset))
        else:
            ops.append((op,) + tuple(draw(st.sampled_from(_INT))
                                     for _ in range(3)))

    def body(b):
        # f1–f3 start as int words, so whatever a byte or word load
        # reads back is an int.
        for reg, offset in zip(_FP, (0, 8, 16)):
            b.ld(reg, BASE, offset)
        for op, *operands in ops:
            getattr(b, op)(*operands)

    return _buffer_program(body)


@given(_programs())
@settings(max_examples=400, deadline=None)
def test_annotations_match_brute_force_scans(program):
    records = list(Interpreter(program).trace())
    assert [dyn.seq for dyn in records] == list(range(len(records)))
    _assert_matches_scans(records, program)


def test_byte_stores_split_a_word_and_word_stores_join_it():
    def body(b):
        b.sw("r1", BASE, 0)   # seq 1
        b.sb("r1", BASE, 2)   # seq 2
        b.lb("r2", BASE, 1)   # the word store
        b.lb("r2", BASE, 2)   # the byte store
        b.lw("r2", BASE, 0)   # youngest toucher
        b.ld("f1", BASE, 0)
        b.sd("f1", BASE, 0)   # seq 7
        b.lb("r2", BASE, 2)   # joined again
        b.lw("r2", BASE, 4)

    fwd = [dyn.fwd for dyn in Interpreter(_buffer_program(body)).trace()
           if dyn.op_class == _LOAD]
    assert fwd == [1, 2, 2, 2, 7, 7]


def test_duplicate_sources_keep_duplicate_producers():
    b = ProgramBuilder()
    b.li("r3", 1)
    b.add("r3", "r3", "r3")
    b.add("r5", "r3", "r4")   # r4 has no writer
    b.halt()
    assert [list(dyn.deps) for dyn in Interpreter(b.build()).trace()] \
        == [[], [0, 0], [1], []]


def test_interpreter_trace_matches_brute_force_scans():
    program = build_program("compress")
    records = list(Interpreter(program).trace(limit=3000))
    assert any(dyn.op_class == _LOAD for dyn in records)
    _assert_matches_scans(records, program)
