"""Unit tests for the functional interpreter's semantics."""

import pytest

from repro.errors import ExecutionError
from repro.isa import Interpreter, OpClass, ProgramBuilder
from repro.memory.address import STACK_TOP, TEXT_BASE
from repro.workloads import build_program


def _run_regs(build_body):
    b = ProgramBuilder()
    build_body(b)
    b.halt()
    interp = Interpreter(b.build())
    interp.run()
    return interp


def test_integer_arithmetic():
    def body(b):
        b.li("r1", 7)
        b.li("r2", 3)
        b.add("r3", "r1", "r2")
        b.sub("r4", "r1", "r2")
        b.mul("r5", "r1", "r2")
        b.div("r6", "r1", "r2")
        b.rem("r7", "r1", "r2")

    regs = _run_regs(body).registers
    assert regs[3:8] == [10, 4, 21, 2, 1]


def test_division_truncates_toward_zero():
    def body(b):
        b.li("r1", -7)
        b.li("r2", 2)
        b.div("r3", "r1", "r2")
        b.rem("r4", "r1", "r2")

    regs = _run_regs(body).registers
    assert regs[3] == -3  # C semantics, not Python floor division
    assert regs[4] == -1


def test_divide_by_zero_raises():
    for op, operands, message in (
            ("div", ("r3", "r1", "r2"), "divide by zero"),
            ("rem", ("r3", "r1", "r2"), "remainder by zero"),
            ("fdiv", ("f3", "f1", "f2"), "fp divide by zero")):
        b = ProgramBuilder()
        b.li("r1", 1)
        b.li("r2", 0)
        getattr(b, op)(*operands)
        b.halt()
        with pytest.raises(ExecutionError, match=message):
            Interpreter(b.build()).run()


def test_logical_and_shift_operations():
    def body(b):
        b.li("r1", 0b1100)
        b.li("r2", 0b1010)
        b.and_("r3", "r1", "r2")
        b.or_("r4", "r1", "r2")
        b.xor("r5", "r1", "r2")
        b.slli("r6", "r1", 2)
        b.srli("r7", "r1", 2)
        b.li("r8", -8)
        b.li("r9", 1)
        b.sra("r10", "r8", "r9")

    regs = _run_regs(body).registers
    assert regs[3] == 0b1000
    assert regs[4] == 0b1110
    assert regs[5] == 0b0110
    assert regs[6] == 0b110000
    assert regs[7] == 0b11
    assert regs[10] == -4


def test_srl_is_logical_on_negative_values():
    def body(b):
        b.li("r1", -1)
        b.srli("r2", "r1", 60)

    assert _run_regs(body).registers[2] == 0xF


def test_slt_and_slti():
    def body(b):
        b.li("r1", -5)
        b.li("r2", 3)
        b.slt("r3", "r1", "r2")
        b.slt("r4", "r2", "r1")
        b.slti("r5", "r1", 0)

    regs = _run_regs(body).registers
    assert (regs[3], regs[4], regs[5]) == (1, 0, 1)


def test_zero_register_is_immutable():
    def body(b):
        b.li("r0", 42)
        b.add("r1", "r0", "r0")

    regs = _run_regs(body).registers
    assert regs[0] == 0
    assert regs[1] == 0


def test_memory_word_roundtrip_and_default_zero():
    def body(b):
        base = b.alloc_global("buf", 64)
        b.li("r1", base)
        b.li("r2", 123)
        b.sw("r2", "r1", 4)
        b.lw("r3", "r1", 4)
        b.lw("r4", "r1", 8)  # never written -> 0

    regs = _run_regs(body).registers
    assert regs[3] == 123
    assert regs[4] == 0


def test_byte_store_masks_to_eight_bits():
    def body(b):
        base = b.alloc_global("buf", 8)
        b.li("r1", base)
        b.li("r2", 0x1FF)
        b.sb("r2", "r1", 0)
        b.lb("r3", "r1", 0)

    assert _run_regs(body).registers[3] == 0xFF


def test_unaligned_access_raises():
    for op, reg, offset, message in (("lw", "r2", 2, "unaligned load"),
                                     ("sd", "f1", 4, "unaligned store")):
        b = ProgramBuilder()
        base = b.alloc_global("buf", 16)
        b.li("r1", base + offset)
        getattr(b, op)(reg, "r1", 0)
        b.halt()
        with pytest.raises(ExecutionError, match=message):
            Interpreter(b.build()).run()


def test_floating_point_operations():
    stored = {}

    def body(b):
        base = b.alloc_global("d", 32)
        stored["base"] = base
        b.init_double(base, 1.5)
        b.init_double(base + 8, 2.5)
        b.li("r1", base)
        b.ld("f1", "r1", 0)
        b.ld("f2", "r1", 8)
        b.fadd("f3", "f1", "f2")
        b.fmul("f4", "f1", "f2")
        b.fsub("f5", "f2", "f1")
        b.fdiv("f6", "f2", "f1")
        b.fneg("f7", "f1")
        b.fclt("r2", "f1", "f2")
        b.sd("f3", "r1", 16)

    interp = _run_regs(body)
    fp = interp.registers
    assert fp[32 + 3] == 4.0
    assert fp[32 + 4] == 3.75
    assert fp[32 + 5] == 1.0
    assert fp[32 + 6] == pytest.approx(2.5 / 1.5)
    assert fp[32 + 7] == -1.5
    assert fp[2] == 1
    assert interp.memory[stored["base"] + 16] == 4.0


def test_cvt_between_int_and_float():
    def body(b):
        b.li("r1", 7)
        b.cvtif("f1", "r1")
        b.fadd("f2", "f1", "f1")
        b.cvtfi("r2", "f2")

    assert _run_regs(body).registers[2] == 14


def test_branches_all_directions():
    def body(b):
        b.li("r1", 1)
        b.li("r2", 2)
        b.li("r10", 0)
        for cond, taken in [("eq", False), ("ne", True), ("lt", True),
                            ("ge", False), ("le", True), ("gt", False)]:
            label = b.fresh_label()
            getattr(b, "b" + cond)("r1", "r2", label)
            b.addi("r10", "r10", 0 if taken else 1)
            b.label(label)

    # r10 counts fall-throughs of the not-taken branches: eq, ge, gt -> 3.
    assert _run_regs(body).registers[10] == 3


def test_jal_links_return_address():
    b = ProgramBuilder()
    b.jal("target")
    b.halt()
    b.label("target")
    b.mov("r1", "r31")
    b.jr("r31")
    interp = Interpreter(b.build())
    interp.run()
    assert interp.registers[1] == TEXT_BASE + 4  # address of the halt


def test_jr_to_garbage_raises():
    b = ProgramBuilder()
    b.li("r1", 0x123)
    b.jr("r1")
    b.halt()
    with pytest.raises(ExecutionError):
        Interpreter(b.build()).run()
    # A jump past the last instruction leaves the program too.
    b = ProgramBuilder()
    past = b.fresh_label("past")
    b.j(past)
    b.halt()  # satisfies validate(); jumped over, never reached
    b.label(past)
    with pytest.raises(ExecutionError, match="fell off program"):
        list(Interpreter(b.build()).trace())


def test_stack_pointer_initialized_below_stack_top():
    b = ProgramBuilder()
    b.halt()
    interp = Interpreter(b.build())
    assert interp.registers[29] < STACK_TOP


def test_run_limit_stops_infinite_loop():
    b = ProgramBuilder()
    b.label("spin")
    b.j("spin")
    b.halt()
    interp = Interpreter(b.build())
    result = interp.run(limit=1000)
    assert not result.halted
    assert result.instructions == 1000
    # trace() stops at its limit too; only a run to HALT sets halted.
    b = ProgramBuilder()
    with b.repeat(10, "r1"):
        b.addi("r2", "r2", 1)
    b.halt()
    program = b.build()
    full = Interpreter(program).run().instructions
    assert full > 7
    for limit in (0, 1, 7, None):
        interp = Interpreter(program)
        records = list(interp.trace(limit=limit))
        count = full if limit is None else limit
        assert [r.seq for r in records] == list(range(count))
        assert interp.halted == (limit is None)


def test_load_store_counters():
    def body(b):
        base = b.alloc_global("buf", 16)
        b.li("r1", base)
        b.sw("r1", "r1", 0)
        b.lw("r2", "r1", 0)
        b.lw("r3", "r1", 0)

    interp = _run_regs(body)
    assert interp.loads == 2
    assert interp.stores == 1


def test_trace_records_memory_and_dependencies():
    b = ProgramBuilder()
    base = b.alloc_global("buf", 16)
    b.li("r1", base)
    b.lw("r2", "r1", 0)
    b.add("r3", "r2", "r1")
    b.halt()
    records = list(Interpreter(b.build()).trace())
    assert [r.op_class for r in records] == [
        int(OpClass.IALU), int(OpClass.LOAD), int(OpClass.IALU),
        int(OpClass.BRANCH),
    ]
    load = records[1]
    assert load.addr == base and load.size == 4
    assert load.deps == [0] and load.fwd == -1
    add = records[2]
    assert add.deps == [1, 0]  # r2 from the load, r1 from the li
    assert [r.seq for r in records] == [0, 1, 2, 3]


def test_mem_refs_stream_includes_ifetch_and_data():
    b = ProgramBuilder()
    base = b.alloc_global("buf", 16)
    b.li("r1", base)
    b.lw("r2", "r1", 0)
    b.halt()
    refs = list(Interpreter(b.build()).mem_refs())
    assert refs == [("I", TEXT_BASE), ("I", TEXT_BASE + 4), ("R", base),
                    ("I", TEXT_BASE + 8)]


def test_mem_refs_can_exclude_ifetch():
    b = ProgramBuilder()
    base = b.alloc_global("buf", 16)
    b.li("r1", base)
    b.sw("r1", "r1", 0)
    b.halt()
    refs = list(Interpreter(b.build()).mem_refs(include_ifetch=False))
    assert refs == [("W", base)]


def test_trace_level_studies_walk_the_stream_once(monkeypatch):
    """Table 2 profiles pages and filters its measurement caches in one
    walk of the interpreter's reference stream, as Table 1 does."""
    from repro.analysis.traffic import measure_esp_traffic
    from repro.experiments.table2 import measure_datathreads

    walks = []
    mem_refs = Interpreter.mem_refs

    def counting(self, *args, **kwargs):
        walks.append(self.program.name)
        return mem_refs(self, *args, **kwargs)

    monkeypatch.setattr(Interpreter, "mem_refs", counting)
    measure_datathreads("compress", limit=2000)
    assert walks == ["compress"]
    walks.clear()
    measure_esp_traffic(build_program("compress"), limit=2000)
    assert walks == ["compress"]
