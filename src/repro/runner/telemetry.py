"""Per-point telemetry for the sweep engine.

Every executed point, serial or in a pool worker, runs through
:func:`execute_point_task`, which measures it and returns
``(result, payload)``.  At ``jobs>1`` the payload travels back in-band
through the future, so the sweep's :class:`PointTelemetry` list — one
entry per sweep position, in sweep order — is deterministic regardless
of scheduling or worker count.  The live :class:`ProgressLine` is fed
from the same completions.

Per-worker span merging (:func:`worker_tracks`) groups every executed
point's spans by worker pid so
:func:`repro.obs.export.spans_to_chrome_trace` can lay one sweep out as
one timeline with a track per worker.
"""

from __future__ import annotations

import os
import sys
import time

from ..obs.spans import SpanRecorder, records_as_dicts, recording
from .executors import execute_point
from .point import SweepPoint

__all__ = ["PointTelemetry", "ProgressLine", "execute_point_task",
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
# The task function: the one way a point runs.
# ----------------------------------------------------------------------
def execute_point_task(point: SweepPoint, collect_spans: bool = False):
    """Run one point, measure it, and return ``(result, payload)``.

    ``payload`` is a plain dict (wall/CPU seconds, pid, span dicts) —
    everything :class:`PointTelemetry` needs besides the point itself.
    The engine calls this in process at ``jobs=1`` and ships it to pool
    workers at ``jobs>1``.  Exceptions propagate unchanged.
    """
    recorder = SpanRecorder() if collect_spans else None
    t0 = time.perf_counter()
    c0 = time.process_time()
    with recording(recorder):
        result = execute_point(point)
    payload = {
        "wall": time.perf_counter() - t0,
        "cpu": time.process_time() - c0,
        "worker": os.getpid(),
        "spans": records_as_dicts(recorder),
    }
    return result, payload


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
