"""Dynamic-trace records produced by the functional interpreter.

The paper's evaluation assumes perfect branch prediction, so the committed
dynamic path equals the functional path.  The timing models therefore
consume the functional interpreter's instruction stream directly — each
record carries the effective memory address and, as producer seqs, the
true register dependencies, which is exactly the information
SimpleScalar's out-of-order simulator would have had under perfect
prediction.

:meth:`~repro.isa.interpreter.Interpreter.trace` resolves each record's
producers and, for a load, its forwarding store as it steps, so that
each SPSD node's window only compares a named seq with its head instead
of rebuilding the dependence graph and rescanning its store queue.
"""

from __future__ import annotations

from .opcodes import OpClass


class DynInstr:
    """One dynamically-executed instruction, ready for dispatch.

    ``deps`` holds the seq of the youngest earlier writer of each source
    register that has one (a duplicate source keeps its duplicate);
    ``fwd`` is, for a load, the seq of the youngest earlier store
    overlapping any of its bytes, else -1.

    :func:`repro.memory.canonical_outcomes` sets the canonical cache
    outcomes, once per record for every node: ``imiss_line`` is the
    instruction line this record starts when that line misses the
    I-cache, and ``dcache_result`` is a load's or store's
    :class:`~repro.memory.cache.AccessResult`.  Both stay ``None``
    otherwise.
    """

    __slots__ = ("seq", "pc", "op_class", "addr", "size", "deps", "fwd",
                 "imiss_line", "dcache_result")

    def __init__(self, seq, pc, op_class, addr=None, size=0, deps=(),
                 fwd=-1):
        self.seq = seq
        self.pc = pc
        self.op_class = op_class
        self.addr = addr
        self.size = size
        self.deps = deps
        self.fwd = fwd
        self.imiss_line = None
        self.dcache_result = None

    def __repr__(self) -> str:
        core = f"#{self.seq} pc={self.pc:#x} {OpClass(self.op_class).name}"
        if self.addr is not None:
            core += f" addr={self.addr:#x}/{self.size}"
        return f"<DynInstr {core}>"


#: Reference kinds of :meth:`~repro.isa.interpreter.Interpreter.mem_refs`
#: pairs: instruction fetch, data read and data write.
IFETCH = "I"
READ = "R"
WRITE = "W"
