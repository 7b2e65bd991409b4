"""Tests for the dependence annotator (`repro.isa.annotate`).

The annotator replaces two per-node scans of the timing model — the
last writer of each source register and the youngest earlier store a
load overlaps — with seqs computed once per record.  These tests hold
it to both scans, kept here as brute-force references.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.isa import Interpreter, annotate
from repro.isa.opcodes import OpClass
from repro.isa.trace import DynInstr
from repro.workloads import build_program

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_IALU = int(OpClass.IALU)

#: Address range of the generated accesses: small enough that stores
#: and loads of different sizes overlap partially and alias bytes
#: within a word.
SPAN = 64


def _record(seq, kind, dest=None, srcs=(), addr=None, size=0):
    op_class = {"alu": _IALU, "load": _LOAD, "store": _STORE}[kind]
    return DynInstr(seq, 0x400000 + 4 * seq, op_class, dest, srcs,
                    addr, size)


def _last_writer_deps(records):
    """Per record, the seqs of its sources' last writers."""
    writer = {}
    expected = []
    for dyn in records:
        expected.append([writer[src] for src in dyn.srcs if src in writer])
        if dyn.dest is not None:
            writer[dyn.dest] = dyn.seq
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


def _access(draw):
    size = draw(st.sampled_from((1, 4, 8)))
    addr = draw(st.integers(0, SPAN // size - 1)) * size
    return addr, size


@st.composite
def _streams(draw):
    """Aligned 1-, 4- and 8-byte loads and stores over :data:`SPAN`
    bytes, mixed with register operations."""
    records = []
    for seq in range(draw(st.integers(1, 60))):
        kind = draw(st.sampled_from(("alu", "load", "store")))
        regs = st.integers(1, 6)
        srcs = tuple(draw(st.lists(regs, max_size=3)))
        dest = None if kind == "store" else draw(st.one_of(st.none(), regs))
        addr, size = _access(draw) if kind != "alu" else (None, 0)
        records.append(_record(seq, kind, dest, srcs, addr, size))
    return records


@given(_streams())
@settings(max_examples=400, deadline=None)
def test_annotations_match_brute_force_scans(records):
    annotated = list(annotate(records))
    assert annotated == records  # annotated in place, in order
    for index, (dyn, deps) in enumerate(
            zip(annotated, _last_writer_deps(records))):
        assert list(dyn.deps) == deps
        if dyn.op_class == _LOAD:
            assert dyn.fwd == _scanned_fwd(records, index)
        else:
            assert dyn.fwd == -1


def test_byte_stores_split_a_word_and_word_stores_join_it():
    stream = [
        _record(0, "store", addr=0x100, size=4),
        _record(1, "store", addr=0x102, size=1),
        _record(2, "load", addr=0x101, size=1),   # the word store
        _record(3, "load", addr=0x102, size=1),   # the byte store
        _record(4, "load", addr=0x100, size=4),   # youngest toucher
        _record(5, "load", addr=0x100, size=8),
        _record(6, "store", addr=0x100, size=8),
        _record(7, "load", addr=0x102, size=1),   # joined again
        _record(8, "load", addr=0x104, size=4),
    ]
    fwd = [dyn.fwd for dyn in annotate(stream) if dyn.op_class == _LOAD]
    assert fwd == [0, 1, 1, 1, 6, 6]


def test_duplicate_sources_keep_duplicate_producers():
    stream = [_record(0, "alu", dest=3),
              _record(1, "alu", dest=3, srcs=(3, 3, 4)),
              _record(2, "alu", srcs=(3,))]
    assert [dyn.deps for dyn in annotate(stream)] == [[], [0, 0], [1]]


def test_interpreter_trace_matches_brute_force_scans():
    records = list(annotate(Interpreter(build_program("compress")).trace(
        limit=3000)))
    assert [list(dyn.deps) for dyn in records] == _last_writer_deps(records)
    loads = [i for i, dyn in enumerate(records) if dyn.op_class == _LOAD]
    assert loads
    for index in loads:
        assert records[index].fwd == _scanned_fwd(records, index)


@pytest.mark.parametrize("seqs", [(0, 1, 3), (0, 1, 1), (1, 2)],
                         ids=["gap", "repeat", "late-start"])
def test_broken_seq_order_is_a_simulation_error(seqs):
    stream = annotate(_record(seq, "alu") for seq in seqs)
    with pytest.raises(SimulationError, match="without gaps or repeats"):
        list(stream)


def test_unsupported_access_size_is_a_simulation_error():
    with pytest.raises(SimulationError, match="access size 2"):
        list(annotate([_record(0, "load", addr=0x100, size=2)]))
