"""Worker→parent telemetry for the sweep engine.

Process-pool workers cannot share a :class:`~repro.obs.spans.
SpanRecorder` with the parent, so each worker streams small JSON
records into its own append-only spool file
(``<spool>/worker-<pid>.jsonl``) — a ``start`` record when a point
begins, a ``done``/``error`` record when it finishes.  The parent polls
the spool between scheduler rounds (:class:`TelemetryReader` tracks a
byte offset per file and only ever consumes complete lines), which is
what drives the live progress line while futures are still in flight.

Authoritative per-point data still travels in-band: the worker task
returns ``(result, payload)`` through the future, so the sweep's
:class:`PointTelemetry` list — one entry per sweep position, in sweep
order — is deterministic regardless of scheduling, worker count, or
which spool lines the parent happened to observe.  The spool is only
for *live* display; it is deleted after the sweep.

Per-worker span merging (:func:`worker_tracks`) groups every executed
point's spans by worker pid so
:func:`repro.obs.export.spans_to_chrome_trace` can lay one sweep out as
one timeline with a track per worker.
"""

from __future__ import annotations

import json
import os
import sys
import time

from ..obs.spans import SpanRecorder, records_as_dicts, recording
from .executors import execute_point
from .point import SweepPoint

__all__ = ["PointTelemetry", "ProgressLine", "TelemetryReader",
           "TelemetryWriter", "close_writers", "execute_point_task",
           "worker_tracks"]


class PointTelemetry:
    """What the engine knows about one sweep position after a run.

    One instance per point *position* (deduped positions share the
    executing position's measurements but are flagged ``deduped``);
    cached positions carry zero wall/CPU and no spans.
    """

    __slots__ = ("index", "label", "kind", "workload", "scale", "limit",
                 "digest", "cached", "deduped", "wall", "cpu", "worker",
                 "spans")

    def __init__(self, index: int, label: str, kind: str,
                 workload: "str | None", scale: int, limit: "int | None",
                 digest: str, cached: bool = False, deduped: bool = False,
                 wall: float = 0.0, cpu: float = 0.0,
                 worker: "int | None" = None,
                 spans: "list[dict] | None" = None):
        self.index = index
        self.label = label
        self.kind = kind
        self.workload = workload
        self.scale = scale
        self.limit = limit
        self.digest = digest
        self.cached = cached
        self.deduped = deduped
        self.wall = wall
        self.cpu = cpu
        self.worker = worker
        self.spans = spans if spans is not None else []

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, row: dict) -> "PointTelemetry":
        return cls(**{slot: row[slot] for slot in cls.__slots__})


# ----------------------------------------------------------------------
# Worker side: the picklable task function and its spool writer.
# ----------------------------------------------------------------------
#: spool dir -> open writer, so a reused pool worker appends to one
#: file across all the points it executes.
_WRITERS: "dict[str, TelemetryWriter]" = {}


class TelemetryWriter:
    """Append-only JSONL spool for one worker process."""

    def __init__(self, spool_dir: str):
        self.path = os.path.join(spool_dir, f"worker-{os.getpid()}.jsonl")
        self._handle = open(self.path, "a", encoding="utf-8")

    def write(self, record: dict) -> None:
        """Append one record and flush, so the parent's next poll (a
        plain read past its saved offset) can observe it.

        The spool is display-only, so a write failure (the parent
        already tore the spool down, disk full) degrades this writer
        to a no-op instead of failing the point."""
        if self._handle is None:
            return
        try:
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()
        except (OSError, ValueError):
            self.close()

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass


def _writer_for(spool_dir: "str | None") -> "TelemetryWriter | None":
    if spool_dir is None:
        return None
    writer = _WRITERS.get(spool_dir)
    if writer is None:
        try:
            writer = TelemetryWriter(spool_dir)
        except OSError:
            return None  # spool vanished: telemetry degrades, points run
        _WRITERS[spool_dir] = writer
    return writer


def close_writers() -> None:
    """Close every cached spool writer (worker teardown, tests)."""
    while _WRITERS:
        _, writer = _WRITERS.popitem()
        writer.close()


def execute_point_task(point: SweepPoint, spool_dir: "str | None" = None,
                       collect_spans: bool = False):
    """The engine's worker task: run one point, measure it, spool
    progress records, and return ``(result, payload)``.

    ``payload`` is a plain dict (label, wall/CPU seconds, worker pid,
    span dicts) — everything :class:`PointTelemetry` needs, shipped
    in-band through the future so the authoritative record never
    depends on spool polling.  Exceptions propagate unchanged after an
    ``error`` record is spooled.
    """
    label = point.label or point.kind
    writer = _writer_for(spool_dir)
    if writer is not None:
        writer.write({"event": "start", "label": label,
                      "pid": os.getpid(), "t": time.time()})
    recorder = SpanRecorder() if collect_spans else None
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        with recording(recorder):
            result = execute_point(point)
    except BaseException as exc:
        if writer is not None:
            writer.write({"event": "error", "label": label,
                          "pid": os.getpid(), "t": time.time(),
                          "wall": time.perf_counter() - t0,
                          "error": f"{type(exc).__name__}: {exc}"})
        raise
    payload = {
        "label": label,
        "wall": time.perf_counter() - t0,
        "cpu": time.process_time() - c0,
        "worker": os.getpid(),
        "spans": records_as_dicts(recorder),
    }
    if writer is not None:
        writer.write({"event": "done", "label": label,
                      "pid": os.getpid(), "t": time.time(),
                      "wall": payload["wall"]})
    return result, payload


# ----------------------------------------------------------------------
# Parent side: incremental spool reader.
# ----------------------------------------------------------------------
class TelemetryReader:
    """Incremental reader over a spool directory.

    Each :meth:`poll` returns the records appended since the previous
    poll, across all ``worker-*.jsonl`` files (sorted by filename so a
    single poll's ordering is deterministic).  Only complete lines are
    consumed — a record mid-write is picked up by the next poll — and
    undecodable lines are skipped, so a torn read can never take the
    parent down.

    One handle per spool file is held open across polls (cheaper than
    reopening at the poll cadence, and immune to a writer recreating
    the path); :meth:`close` releases them all — the engine calls it on
    every exit path, including timeout aborts and interruption, so a
    dead sweep never leaks descriptors onto ``worker-*.jsonl`` files
    the spool cleanup is about to delete.
    """

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self._offsets: "dict[str, int]" = {}
        self._handles: "dict[str, object]" = {}

    def _handle_for(self, path: str):
        handle = self._handles.get(path)
        if handle is None:
            try:
                handle = open(path, "rb")
            except OSError:
                return None
            self._handles[path] = handle
        return handle

    def poll(self) -> "list[dict]":
        records: "list[dict]" = []
        try:
            names = sorted(name for name in os.listdir(self.spool_dir)
                           if name.startswith("worker-")
                           and name.endswith(".jsonl"))
        except OSError:
            return records
        for name in names:
            path = os.path.join(self.spool_dir, name)
            handle = self._handle_for(path)
            if handle is None:
                continue
            offset = self._offsets.get(path, 0)
            try:
                handle.seek(offset)
                data = handle.read()
            except (OSError, ValueError):
                self._drop_handle(path)
                continue
            end = data.rfind(b"\n")
            if end < 0:
                continue
            self._offsets[path] = offset + end + 1
            for line in data[:end].splitlines():
                try:
                    records.append(json.loads(line.decode("utf-8")))
                except (UnicodeDecodeError, ValueError):
                    continue
        return records

    def _drop_handle(self, path: str) -> None:
        handle = self._handles.pop(path, None)
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def close(self) -> None:
        """Close every per-file handle (idempotent)."""
        for path in list(self._handles):
            self._drop_handle(path)

    def __enter__(self) -> "TelemetryReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Live progress line.
# ----------------------------------------------------------------------
class ProgressLine:
    """One carriage-return-updated status line on stderr.

    ``enabled=None`` auto-detects: on only when the stream is a TTY
    (so redirected logs never fill with ``\\r`` frames).  All output
    goes to stderr by default — stdout stays clean for results.
    """

    def __init__(self, total: int, stream=None, enabled: "bool | None" = None):
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        if enabled is None:
            isatty = getattr(self.stream, "isatty", None)
            enabled = bool(isatty()) if callable(isatty) else False
        self.enabled = enabled
        self._start = time.perf_counter()
        self._last_width = 0

    def render(self, done: int, cached: int, running: int,
               slowest: "tuple[str, float] | None" = None,
               executed: "int | None" = None,
               remaining: "int | None" = None) -> str:
        """The status text (pure; exercised directly by tests).

        ``executed``/``remaining`` are the *actually executed* and
        *still to execute* work-unit counts the ETA rate is built from.
        The engine passes unique-digest counts, so cache hits and
        deduped duplicate positions — both of which complete in ~zero
        time — never contaminate the per-point rate estimate.  A rerun
        over an interrupted sweep's cache therefore estimates from the
        points it actually executes.  Without them the line falls back to
        position arithmetic (``done - cached`` / ``total - done``),
        which over-counts when any position was served for free.
        """
        parts = [f"[sweep] {done}/{self.total} done"]
        if running:
            parts.append(f"{running} running")
        if self.total:
            parts.append(f"cache {cached}/{self.total}")
        if executed is None:
            executed = done - cached
        if remaining is None:
            remaining = self.total - done
        if executed > 0 and remaining > 0:
            elapsed = time.perf_counter() - self._start
            eta = elapsed / executed * remaining
            parts.append(f"eta {_format_seconds(eta)}")
        if slowest is not None:
            label, seconds = slowest
            parts.append(f"slowest {label} {seconds:.1f}s")
        return " | ".join(parts)

    def update(self, done: int, cached: int, running: int,
               slowest: "tuple[str, float] | None" = None,
               executed: "int | None" = None,
               remaining: "int | None" = None) -> None:
        if not self.enabled:
            return
        text = self.render(done, cached, running, slowest,
                           executed=executed, remaining=remaining)
        pad = max(0, self._last_width - len(text))
        self._last_width = len(text)
        self.stream.write("\r" + text + " " * pad)
        self.stream.flush()

    def finish(self) -> None:
        """End the line (newline) if anything was ever drawn."""
        if self.enabled and self._last_width:
            self.stream.write("\n")
            self.stream.flush()
            self._last_width = 0


def _format_seconds(seconds: float) -> str:
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}:{seconds % 3600 // 60:02d}:{seconds % 60:02d}"
    return f"{seconds // 60}:{seconds % 60:02d}"


# ----------------------------------------------------------------------
# Per-worker span merging.
# ----------------------------------------------------------------------
def worker_tracks(telemetry: "list[PointTelemetry]"):
    """Group executed points' spans by worker for the Chrome trace.

    Returns ``[(track_name, span_dicts)]`` sorted by worker pid (the
    serial path's in-process spans land on a ``"serial"`` track), each
    track's records ordered by start time — deterministic given the
    same telemetry, independent of the order records were observed.
    """
    by_worker: "dict[object, list[dict]]" = {}
    for point in telemetry:
        if point.deduped or not point.spans:
            continue
        key = point.worker if point.worker is not None else "serial"
        by_worker.setdefault(key, []).extend(point.spans)
    tracks = []
    for key in sorted(by_worker, key=str):
        records = sorted(by_worker[key],
                         key=lambda row: (row["start"], row["path"]))
        name = key if key == "serial" else f"worker-{key}"
        tracks.append((name, records))
    return tracks
