"""Tests for the Chrome trace_event and JSONL exporters."""

import json

from repro.core.system import DataScalarSystem
from repro.experiments.config import datascalar_config
from repro.obs import EventKind, EventTracer, TraceEvent, from_jsonl, \
    to_chrome_trace, to_jsonl, write_chrome_trace, write_jsonl
from repro.workloads import build_program


def _traced_events(num_nodes=4, limit=1500):
    program = build_program("compress")
    tracer = EventTracer()
    DataScalarSystem(datascalar_config(num_nodes)).run(program, limit=limit,
                                                       tracer=tracer)
    return tracer.events


def test_chrome_trace_is_valid_json_with_per_node_tracks(tmp_path):
    events = _traced_events()
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), events)
    doc = json.loads(path.read_text())
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    names = {(row["pid"], row["args"]["name"])
             for row in doc["traceEvents"]
             if row["ph"] == "M" and row["name"] == "process_name"}
    assert names == {(node, f"node {node}") for node in range(4)}


def test_chrome_trace_broadcast_flow_pairs():
    """Every arrival gets an s->f flow arrow from its send."""
    events = _traced_events()
    rows = to_chrome_trace(events)["traceEvents"]
    starts = [row for row in rows if row["ph"] == "s"]
    finishes = [row for row in rows if row["ph"] == "f"]
    arrivals = sum(1 for event in events
                   if event.kind is EventKind.BCAST_ARRIVE)
    assert len(starts) == len(finishes) == arrivals > 0
    by_id = {row["id"]: row for row in starts}
    for finish in finishes:
        start = by_id[finish["id"]]
        assert finish["bp"] == "e"
        assert start["ts"] <= finish["ts"]
        assert start["pid"] != finish["pid"]  # sender -> receiver


def test_chrome_trace_stall_slices_carry_duration():
    events = [TraceEvent(EventKind.ISSUE_STALL, 100, 0,
                         {"cause": "window", "cycles": 40})]
    rows = to_chrome_trace(events)["traceEvents"]
    slices = [row for row in rows if row["ph"] == "X"]
    assert slices[0]["name"] == "stall:window"
    assert slices[0]["ts"] == 100 and slices[0]["dur"] == 40


def test_chrome_trace_hex_formats_line_addresses():
    events = [TraceEvent(EventKind.BSHR_ALLOC, 5, 1, {"line": 0x1f40})]
    rows = to_chrome_trace(events)["traceEvents"]
    instants = [row for row in rows if row["ph"] == "i"]
    assert instants[0]["args"]["line"] == "0x1f40"


def test_medium_xfer_lands_on_interconnect_thread():
    events = _traced_events(num_nodes=2)
    rows = to_chrome_trace(events)["traceEvents"]
    xfers = [row for row in rows if row.get("cat") == "medium"]
    assert xfers and all(row["tid"] == 1 for row in xfers)
    thread_names = {(row["pid"], row["tid"]): row["args"]["name"]
                    for row in rows
                    if row["ph"] == "M" and row["name"] == "thread_name"}
    for row in xfers:
        assert thread_names[(row["pid"], 1)] == "interconnect"


def test_jsonl_round_trip(tmp_path):
    events = _traced_events(num_nodes=2, limit=1000)
    path = tmp_path / "events.jsonl"
    write_jsonl(str(path), events)
    restored = from_jsonl(path.read_text())
    assert restored == events


def test_jsonl_round_trip_preserves_kinds_and_args():
    events = [
        TraceEvent(EventKind.COMMIT, 1, 0, {"seq": 1, "op": "alu"}),
        TraceEvent(EventKind.BCAST_SEND, 2, 1,
                   {"line": 0x40, "late": False, "seq": 1}),
    ]
    assert from_jsonl(to_jsonl(events)) == events


def test_empty_exports(tmp_path):
    assert to_jsonl([]) == ""
    assert from_jsonl("") == []
    doc = to_chrome_trace([])
    assert doc["traceEvents"] == []
    path = tmp_path / "empty.jsonl"
    write_jsonl(str(path), [])
    assert path.read_text() == ""
