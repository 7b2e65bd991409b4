"""Hierarchical spans: nesting, disabled path, breakdown, export."""

from __future__ import annotations

import json
import time

import pytest

from repro.obs.export import spans_to_chrome_trace, write_spans_chrome_trace
from repro.obs.spans import (SpanRecorder, breakdown, phase_totals,
                             recording, records_as_dicts, span)


def test_nesting_builds_slash_paths():
    recorder = SpanRecorder()
    with recording(recorder):
        with span("point"):
            with span("timing-loop"):
                pass
            with span("analysis"):
                pass
    paths = [record.path for record in recorder.records]
    # Inner spans close (and record) before their parent.
    assert paths == ["point/timing-loop", "point/analysis", "point"]
    assert recorder.records[0].name == "timing-loop"
    assert recorder.records[2].depth == 0


def test_disabled_path_returns_shared_singleton():
    first = span("anything")
    second = span("other")
    assert first is second  # no allocation when disabled
    with first:
        pass  # and it is a working no-op context manager


def test_recording_scope_installs_and_restores():
    outer = SpanRecorder()
    inner = SpanRecorder()
    with recording(outer):
        with recording(inner):
            with span("in-inner"):
                pass
        with span("in-outer"):
            pass
    assert [record.path for record in inner.records] == ["in-inner"]
    assert [record.path for record in outer.records] == ["in-outer"]
    assert span("after-both") is span("other")  # the shared no-op


def test_recording_none_is_a_noop_scope():
    with recording(None) as recorder:
        assert recorder is None
        assert span("anything") is span("other")


def test_exception_unwinds_span_stack():
    recorder = SpanRecorder()
    with recording(recorder):
        with pytest.raises(ValueError):
            with span("outer"):
                with span("inner"):
                    raise ValueError("boom")
        # The stack unwound: a fresh span nests at top level again.
        with span("after"):
            pass
    paths = [record.path for record in recorder.records]
    assert paths == ["outer/inner", "outer", "after"]


def test_span_measures_wall_and_cpu():
    recorder = SpanRecorder()
    with recording(recorder):
        with span("sleepy"):
            time.sleep(0.02)
    (record,) = recorder.records
    assert record.path == "sleepy"
    assert record.wall >= 0.015
    assert record.cpu < record.wall  # sleeping burns no CPU


def test_records_round_trip_through_json():
    recorder = SpanRecorder()
    with recording(recorder):
        with span("point"):
            pass
    rows = records_as_dicts(recorder)
    again = json.loads(json.dumps(rows))
    assert again == rows
    # Rebased to the epoch: the start time is recent wall-clock time.
    assert abs(rows[0]["start"] - time.time()) < 60


def test_breakdown_sums_exactly_to_root():
    recorder = SpanRecorder()
    with recording(recorder):
        with span("point"):
            with span("timing-loop"):
                with span("nested-grandchild"):
                    pass
            with span("analysis"):
                pass
    rows = records_as_dicts(recorder)
    parts = breakdown(rows, root="point")
    assert set(parts) == {"timing-loop", "analysis", "<self>"}
    root_wall = phase_totals(rows)["point"]["wall"]
    assert sum(entry["wall"] for entry in parts.values()) == \
        pytest.approx(root_wall, abs=1e-12)


def test_breakdown_without_root_is_empty():
    assert breakdown([], root="point") == {}


def test_chrome_trace_has_per_worker_tracks(tmp_path):
    def rows(offset):
        recorder = SpanRecorder()
        with recording(recorder):
            with span("point"):
                with span("timing-loop"):
                    pass
        out = records_as_dicts(recorder)
        for row in out:
            row["start"] += offset
        return out

    tracks = [("worker-100", rows(0.0)), ("worker-200", rows(1.0))]
    trace = spans_to_chrome_trace(tracks)
    events = trace["traceEvents"]
    names = {event["args"]["name"] for event in events
             if event.get("ph") == "M" and event["name"] == "process_name"}
    assert names == {"worker-100", "worker-200"}
    xs = [event for event in events if event["ph"] == "X"]
    assert len(xs) == 4
    assert all(event["ts"] >= 0 for event in xs)
    assert all(event["dur"] >= 1.0 for event in xs)
    # Every span lands on the one thread track of its worker.
    assert all(event["tid"] == 0 for event in xs)
    assert sorted(event["args"]["path"] for event in xs) == \
        ["point", "point", "point/timing-loop", "point/timing-loop"]

    path = tmp_path / "trace.json"
    write_spans_chrome_trace(str(path), tracks)
    assert json.loads(path.read_text())["traceEvents"]


def test_simulation_results_identical_with_spans_on():
    from repro.experiments.config import timing_node_config, \
        traditional_config
    from repro.runner import SweepPoint, execute_point, result_fingerprint
    from repro.runner.executors import release_records

    node = timing_node_config()
    point = SweepPoint.make("traditional", "compress", limit=1200,
                            config=traditional_config(2, node=node))
    # Each call builds its own record stream, not the one held after
    # the other.
    release_records()
    plain = execute_point(point)
    release_records()
    with recording(SpanRecorder()):
        instrumented = execute_point(point)
    release_records()
    assert result_fingerprint(plain) == result_fingerprint(instrumented)
