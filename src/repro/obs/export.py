"""Trace exporters: Chrome ``trace_event`` JSON and JSONL dumps.

The Chrome exporter targets Perfetto (https://ui.perfetto.dev): open the
written JSON and every node appears as its own process track ("node 0",
"node 1", ...), with one-cycle slices for sends/arrivals, duration
slices for fetch-stall episodes, thread-scoped instants for
BSHR/DCUB/fault activity, a per-node ``committed`` counter track, and —
the part that makes datathreading pipelining visible — a flow arrow from
every broadcast send to each of its per-receiver arrivals.

Timestamps are simulated cycles, written as microseconds (one cycle ==
1 us) so Perfetto's zooming behaves sensibly.
"""

from __future__ import annotations

import json

from .events import EventKind, TraceEvent

#: Event kinds rendered as thread-scoped instants on the node's track.
_INSTANT_KINDS = {
    EventKind.BSHR_ALLOC: "bshr-alloc",
    EventKind.BSHR_FILL: "bshr-fill",
    EventKind.BCAST_CONSUME: "bcast-consume",
    EventKind.DCUB_STAGE: "dcub-stage",
    EventKind.DCUB_APPLY: "dcub-apply",
    EventKind.FALSE_HIT_REPAIR: "false-hit-repair",
    EventKind.FAULT_INJECT: "fault-inject",
    EventKind.FAULT_RECOVER: "fault-recover",
}


def _json_args(args: dict) -> dict:
    """JSON-safe copy of an event's args (hex-format line addresses)."""
    safe = {}
    for key, value in args.items():
        if key == "line" and isinstance(value, int):
            safe[key] = hex(value)
        else:
            safe[key] = value
    return safe


def to_chrome_trace(events: "list[TraceEvent]") -> dict:
    """Build a Chrome ``trace_event`` document from a run's events."""
    rows: "list[dict]" = []
    nodes = sorted({event.node for event in events})
    for node in nodes:
        rows.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": node,
                "tid": 0,
                "args": {"name": f"node {node}"},
            }
        )
        rows.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": node,
                "tid": 0,
                "args": {"name": "events"},
            }
        )
    flow_id = 0
    #: Most recent send per source node: (event, flow ids already used).
    last_send: "dict[int, TraceEvent]" = {}
    for event in events:
        kind = event.kind
        ts = event.cycle
        pid = event.node
        if kind is EventKind.COMMIT:
            rows.append(
                {
                    "ph": "C",
                    "name": "committed",
                    "pid": pid,
                    "ts": ts,
                    "args": {"count": event.args.get("seq", 0)},
                }
            )
        elif kind is EventKind.ISSUE_STALL:
            rows.append(
                {
                    "ph": "X",
                    "name": f"stall:{event.args.get('cause', '?')}",
                    "cat": "stall",
                    "pid": pid,
                    "tid": 0,
                    "ts": ts,
                    "dur": max(1, int(event.args.get("cycles", 1))),
                }
            )
        elif kind is EventKind.BCAST_SEND:
            last_send[event.node] = event
            rows.append(
                {
                    "ph": "X",
                    "name": "bcast-send",
                    "cat": "broadcast",
                    "pid": pid,
                    "tid": 0,
                    "ts": ts,
                    "dur": 1,
                    "args": _json_args(event.args),
                }
            )
        elif kind is EventKind.BCAST_ARRIVE:
            src = event.args.get("src")
            rows.append(
                {
                    "ph": "X",
                    "name": "bcast-arrive",
                    "cat": "broadcast",
                    "pid": pid,
                    "tid": 0,
                    "ts": ts,
                    "dur": 1,
                    "args": _json_args(event.args),
                }
            )
            send = last_send.get(src) if isinstance(src, int) else None
            if send is not None:
                flow_id += 1
                flow = {"cat": "broadcast", "name": "bcast", "id": flow_id}
                rows.append(
                    {"ph": "s", "pid": send.node, "tid": 0, "ts": send.cycle, **flow}
                )
                rows.append(
                    {"ph": "f", "bp": "e", "pid": pid, "tid": 0, "ts": ts, **flow}
                )
        elif kind is EventKind.MEDIUM_XFER:
            start = int(event.args.get("start", ts))
            done = int(event.args.get("done", ts + 1))
            rows.append(
                {
                    "ph": "X",
                    "name": "xfer",
                    "cat": "medium",
                    "pid": pid,
                    "tid": 1,
                    "ts": start,
                    "dur": max(1, done - start),
                    "args": _json_args(event.args),
                }
            )
        elif kind in _INSTANT_KINDS:
            rows.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": _INSTANT_KINDS[kind],
                    "cat": kind.value.split("-")[0],
                    "pid": pid,
                    "tid": 0,
                    "ts": ts,
                    "args": _json_args(event.args),
                }
            )
    for node in nodes:
        if any(row.get("tid") == 1 and row.get("pid") == node for row in rows):
            rows.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": node,
                    "tid": 1,
                    "args": {"name": "interconnect"},
                }
            )
    return {"traceEvents": rows, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, events: "list[TraceEvent]") -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(events), handle)
        handle.write("\n")


def spans_to_chrome_trace(
    tracks: "list[tuple[str, list[dict]]]",
) -> dict:
    """Chrome ``trace_event`` document from per-worker span records.

    ``tracks`` is ``[(track_name, records), ...]`` where each record is
    a :func:`repro.obs.spans.records_as_dicts` dict with an epoch
    ``start``.  Every track becomes its own process (one per sweep
    worker), timestamps are microseconds relative to the earliest span
    anywhere, so a whole multi-process sweep reads as one flamegraph in
    ``chrome://tracing`` / Perfetto.  Every span lands on ``tid 0``;
    spans are properly nested in time, so they stack.
    """
    rows: "list[dict]" = []
    starts = [
        float(record["start"])
        for _, records in tracks
        for record in records
    ]
    base = min(starts) if starts else 0.0
    for pid, (name, records) in enumerate(tracks):
        rows.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
        rows.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": "spans"},
            }
        )
        for record in records:
            rows.append(
                {
                    "ph": "X",
                    "name": str(record["name"]),
                    "cat": "span",
                    "pid": pid,
                    "tid": 0,
                    "ts": (float(record["start"]) - base) * 1e6,
                    "dur": max(1.0, float(record["wall"]) * 1e6),
                    "args": {
                        "path": record["path"],
                        "cpu_seconds": record["cpu"],
                    },
                }
            )
    return {"traceEvents": rows, "displayTimeUnit": "ms"}


def write_spans_chrome_trace(
    path: str, tracks: "list[tuple[str, list[dict]]]"
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spans_to_chrome_trace(tracks), handle)
        handle.write("\n")


def to_jsonl(events: "list[TraceEvent]") -> str:
    """One JSON object per line, in emission order."""
    return "\n".join(json.dumps(event.as_record()) for event in events)


def from_jsonl(text: str) -> "list[TraceEvent]":
    """Inverse of :func:`to_jsonl`."""
    return [
        TraceEvent.from_record(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


def write_jsonl(path: str, events: "list[TraceEvent]") -> None:
    with open(path, "w", encoding="utf-8") as handle:
        text = to_jsonl(events)
        if text:
            handle.write(text)
            handle.write("\n")
