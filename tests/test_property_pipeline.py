"""Property-based tests for the out-of-order pipeline."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline.perfect import PerfectMemory
from repro.core.system import drive
from repro.cpu.pipeline import Pipeline
from repro.isa import Interpreter, ProgramBuilder
from repro.params import CPUConfig

# Random straight-line programs mixing ALU ops and memory accesses.
ops = st.lists(
    st.tuples(
        st.sampled_from(["addi", "add", "lw", "sw", "mul"]),
        st.integers(min_value=1, max_value=12),   # register selector
        st.integers(min_value=0, max_value=31),   # word offset selector
    ),
    min_size=1,
    max_size=60,
)


def _build(op_list):
    b = ProgramBuilder()
    base = b.alloc_global("buf", 256)
    b.li("r15", base)
    for op, reg, offset in op_list:
        rd = f"r{reg}"
        if op == "addi":
            b.addi(rd, rd, 1)
        elif op == "add":
            b.add(rd, rd, "r15")
        elif op == "mul":
            b.mul(rd, rd, rd)
        elif op == "lw":
            b.lw(rd, "r15", (offset % 32) * 4)
        else:
            b.sw(rd, "r15", (offset % 32) * 4)
    b.halt()
    return b.build()


def _run(op_list, cpu=None):
    program = _build(op_list)
    pipeline = Pipeline(cpu or CPUConfig(), PerfectMemory(),
                        Interpreter(program).trace())
    drive([pipeline], 1_000_000, what="pipeline")
    return program, pipeline.stats


@given(ops)
@settings(max_examples=80, deadline=None)
def test_pipeline_commits_every_traced_instruction(op_list):
    program, stats = _run(op_list)
    # +2: the leading li and the halt.
    assert stats.committed == len(op_list) + 2


@given(ops)
@settings(max_examples=60, deadline=None)
def test_ipc_bounded_by_machine_width(op_list):
    _, stats = _run(op_list)
    assert 0 < stats.ipc <= CPUConfig().issue_width


@given(ops)
@settings(max_examples=40, deadline=None)
def test_narrower_machine_never_faster(op_list):
    _, wide = _run(op_list)
    narrow_cpu = CPUConfig(fetch_width=1, issue_width=1, commit_width=1,
                           ruu_entries=16, lsq_entries=8)
    _, narrow = _run(op_list, cpu=narrow_cpu)
    assert narrow.cycles >= wide.cycles
    assert narrow.committed == wide.committed


@given(ops)
@settings(max_examples=40, deadline=None)
def test_load_store_counts_match_program(op_list):
    _, stats = _run(op_list)
    loads = sum(1 for op, _, _ in op_list if op == "lw")
    stores = sum(1 for op, _, _ in op_list if op == "sw")
    assert stats.loads == loads
    assert stats.stores == stores


