"""Dynamic-trace records produced by the functional interpreter.

The paper's evaluation assumes perfect branch prediction, so the committed
dynamic path equals the functional path.  The timing models therefore
consume the functional interpreter's instruction stream directly — each
record carries the true register dependencies and the effective memory
address, which is exactly the information SimpleScalar's out-of-order
simulator would have had under perfect prediction.

:func:`annotate` resolves those dependencies to producer seqs once per
record, so that each SPSD node's window only compares a named seq with
its head instead of rebuilding the dependence graph and rescanning its
store queue.
"""

from __future__ import annotations

from ..errors import SimulationError
from .opcodes import OpClass

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)


class DynInstr:
    """One dynamically-executed instruction.

    ``deps`` and ``fwd`` stay ``None`` until :func:`annotate` sets them,
    so an unannotated record fails at dispatch rather than running
    without its dependences.

    :func:`repro.memory.canonical_outcomes` sets the canonical cache
    outcomes, once per record for every node: ``imiss_line`` is the
    instruction line this record starts when that line misses the
    I-cache, and ``dcache_result`` is a load's or store's
    :class:`~repro.memory.cache.AccessResult`.  Both stay ``None``
    otherwise.
    """

    __slots__ = ("seq", "pc", "op_class", "dest", "srcs", "addr", "size",
                 "deps", "fwd", "imiss_line", "dcache_result")

    def __init__(self, seq, pc, op_class, dest, srcs, addr=None, size=0):
        self.seq = seq
        self.pc = pc
        self.op_class = op_class
        self.dest = dest
        self.srcs = srcs
        self.addr = addr
        self.size = size
        self.deps = None
        self.fwd = None
        self.imiss_line = None
        self.dcache_result = None

    @property
    def is_mem(self) -> bool:
        return self.op_class in (OpClass.LOAD, OpClass.STORE)

    def __repr__(self) -> str:
        core = f"#{self.seq} pc={self.pc:#x} {OpClass(self.op_class).name}"
        if self.is_mem:
            core += f" addr={self.addr:#x}/{self.size}"
        return f"<DynInstr {core}>"


def annotate(trace):
    """Yield ``trace``'s records with ``deps`` and ``fwd`` set.

    ``deps`` holds the seq of the youngest earlier writer of each source
    register that has one (duplicate sources keep duplicates); ``fwd``
    is, for a load, the seq of the youngest earlier store overlapping
    any of its bytes, else -1.  Accesses are aligned 1-, 4- or 8-byte,
    so stores are kept per 4-byte word; a byte store splits its word
    into per-byte entries, and a word store joins it again.  The RUU
    finds a named seq at ``seq & mask``, so a stream whose seqs do not
    run 0, 1, 2, ... raises :class:`SimulationError`.
    """
    writer, words, bytes_, split = {}, {}, {}, set()
    expected = 0
    for dyn in trace:
        seq = dyn.seq
        if seq != expected:
            raise SimulationError(
                f"trace record #{seq} follows #{expected - 1}: a stream's "
                f"seqs must run 0, 1, 2, ... without gaps or repeats")
        expected = seq + 1
        dyn.deps = [writer[src] for src in dyn.srcs if src in writer]
        dyn.fwd = -1
        op_class = dyn.op_class
        if op_class == _LOAD or op_class == _STORE:
            addr = dyn.addr
            size = dyn.size
            word = addr >> 2
            if size not in (1, 4, 8):
                raise SimulationError(f"unsupported access size {size}")
            if op_class == _LOAD:
                if size == 1 and word in split:
                    dyn.fwd = bytes_[addr]
                else:
                    dyn.fwd = max(words.get(word, -1),
                                  words.get(word + (size >> 3), -1))
            elif size == 1:
                if word not in split:
                    split.add(word)
                    old = words.get(word, -1)
                    for byte in range(word << 2, (word + 1) << 2):
                        bytes_[byte] = old
                bytes_[addr] = words[word] = seq
            else:
                for covered in range(word, word + (size >> 2)):
                    words[covered] = seq
                    split.discard(covered)
        if dyn.dest is not None:
            writer[dyn.dest] = seq
        yield dyn


#: Reference kinds of :meth:`~repro.isa.interpreter.Interpreter.mem_refs`
#: pairs: instruction fetch, data read and data write.
IFETCH = "I"
READ = "R"
WRITE = "W"
