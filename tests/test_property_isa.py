"""Property-based tests (hypothesis) for the ISA and interpreter."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Interpreter, ProgramBuilder

small_ints = st.integers(min_value=-1000, max_value=1000)
nonzero = small_ints.filter(lambda v: v != 0)


@given(small_ints, small_ints)
@settings(max_examples=150, deadline=None)
def test_add_sub_match_python(a, b):
    builder = ProgramBuilder()
    builder.li("r1", a)
    builder.li("r2", b)
    builder.add("r3", "r1", "r2")
    builder.sub("r4", "r1", "r2")
    builder.halt()
    interp = Interpreter(builder.build())
    interp.run()
    assert interp.registers[3] == a + b
    assert interp.registers[4] == a - b


@given(small_ints, nonzero)
@settings(max_examples=150, deadline=None)
def test_div_rem_identity(a, b):
    """C-style division: a == (a / b) * b + (a % b), |rem| < |b|."""
    builder = ProgramBuilder()
    builder.li("r1", a)
    builder.li("r2", b)
    builder.div("r3", "r1", "r2")
    builder.rem("r4", "r1", "r2")
    builder.halt()
    interp = Interpreter(builder.build())
    interp.run()
    q, r = interp.registers[3], interp.registers[4]
    assert q * b + r == a
    assert abs(r) < abs(b)
    assert r == 0 or (r < 0) == (a < 0)  # remainder takes dividend's sign


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=31))
@settings(max_examples=150, deadline=None)
def test_shift_roundtrip(value, amount):
    builder = ProgramBuilder()
    builder.li("r1", value)
    builder.slli("r2", "r1", amount)
    builder.srli("r3", "r2", amount)
    builder.halt()
    interp = Interpreter(builder.build())
    interp.run()
    # Shifting left then right recovers the value when no bits fell off
    # the 64-bit top.
    if value < (1 << (63 - amount)):
        assert interp.registers[3] == value


@given(st.lists(small_ints, min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_memory_preserves_stored_values(values):
    builder = ProgramBuilder()
    base = builder.alloc_global("buf", len(values) * 4)
    for index, value in enumerate(values):
        builder.li("r1", value)
        builder.li("r2", base + 4 * index)
        builder.sw("r1", "r2", 0)
    builder.halt()
    interp = Interpreter(builder.build())
    interp.run()
    for index, value in enumerate(values):
        assert interp.memory[base + 4 * index] == value


@given(st.lists(small_ints, min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_summation_loop_matches_python(values):
    builder = ProgramBuilder()
    base = builder.alloc_global_words("arr", len(values), init=values)
    builder.li("r1", base)
    builder.li("r2", 0)
    with builder.repeat(len(values), "r3"):
        builder.lw("r4", "r1", 0)
        builder.add("r2", "r2", "r4")
        builder.addi("r1", "r1", 4)
    builder.halt()
    interp = Interpreter(builder.build())
    interp.run()
    assert interp.registers[2] == sum(values)


@given(st.lists(small_ints, min_size=1, max_size=15))
@settings(max_examples=60, deadline=None)
def test_trace_length_equals_instruction_count(values):
    builder = ProgramBuilder()
    for index, value in enumerate(values):
        builder.li(f"r{1 + index % 20}", value)
    builder.halt()
    interp = Interpreter(builder.build())
    records = list(interp.trace())
    assert len(records) == len(values) + 1  # plus the halt
    assert [r.seq for r in records] == list(range(len(records)))


@given(st.lists(st.tuples(st.booleans(), small_ints), min_size=1,
                max_size=12))
@settings(max_examples=60, deadline=None)
def test_branches_select_correct_values(choices):
    """A chain of if/else blocks computes the same result as Python."""
    builder = ProgramBuilder()
    builder.li("r2", 0)
    expected = 0
    for index, (take, value) in enumerate(choices):
        builder.li("r1", 1 if take else 0)
        with builder.if_cond("ne", "r1", "r0"):
            builder.li("r3", value)
            builder.add("r2", "r2", "r3")
        if take:
            expected += value
    builder.halt()
    interp = Interpreter(builder.build())
    interp.run()
    assert interp.registers[2] == expected
