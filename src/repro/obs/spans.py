"""Hierarchical wall/CPU phase spans for sweep telemetry.

A :class:`SpanRecorder` measures *where the wall-clock time of one
sweep point goes*: program build, functional front end, timing loop,
analysis.  Instrumentation sites call
the module-level :func:`span` context manager::

    with span("timing-loop"):
        ...

and nesting builds slash-separated paths (``point/timing-loop``).  When
no recorder is active — the default — :func:`span` returns a shared
no-op singleton, so the disabled path allocates nothing and costs one
global read plus one ``is None`` test; results are bit-identical with
spans on or off because spans only read clocks.

Each record measures one contiguous interval, wall
(``time.perf_counter``) and CPU (``time.process_time``).  Records
serialize to plain dicts (:func:`records_as_dicts`) with their
start times rebased from the monotonic clock to the epoch, so spans
recorded in different worker processes merge onto one timeline
(:func:`repro.obs.export.spans_to_chrome_trace`).  Phase breakdowns
come from :func:`phase_totals` (per-path totals) and :func:`breakdown`
(direct children of a root, self-time charged to ``<self>``).
"""

from __future__ import annotations

import time
from typing import Any, Iterable

__all__ = [
    "SpanRecord",
    "SpanRecorder",
    "breakdown",
    "phase_totals",
    "recording",
    "records_as_dicts",
    "span",
]


class SpanRecord:
    """One completed phase measurement."""

    __slots__ = ("path", "name", "start", "wall", "cpu")

    def __init__(
        self,
        path: str,
        name: str,
        start: float,
        wall: float,
        cpu: float,
    ) -> None:
        #: Slash-separated nesting path, e.g. ``point/timing-loop``.
        self.path = path
        #: Leaf name (the last path component).
        self.name = name
        #: ``time.perf_counter()`` at entry (monotonic; rebase to the
        #: epoch with the recorder's ``epoch_offset`` when exporting).
        self.start = start
        #: Wall seconds inside the span.
        self.wall = wall
        #: Process-CPU seconds inside the span.
        self.cpu = cpu

    @property
    def depth(self) -> int:
        return self.path.count("/")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanRecord({self.path!r}, wall={self.wall:.6f}, cpu={self.cpu:.6f})"


class _OpenSpan:
    """Context manager for one live span."""

    __slots__ = ("_recorder", "_name", "_t0", "_c0")

    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> _OpenSpan:
        recorder = self._recorder
        recorder._stack.append(self._name)
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        return self

    def __exit__(self, *exc_info: object) -> None:
        wall = time.perf_counter() - self._t0
        cpu = time.process_time() - self._c0
        recorder = self._recorder
        stack = recorder._stack
        path = "/".join(stack)
        stack.pop()
        recorder.records.append(SpanRecord(path, self._name, self._t0, wall, cpu))


class _NullSpan:
    """The shared disabled-path context manager: does nothing."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class SpanRecorder:
    """Collects :class:`SpanRecord` for one point / one process.

    Not thread-safe: one recorder belongs to one worker process (the
    sweep engine installs a fresh recorder per point).
    """

    def __init__(self) -> None:
        self.records: list[SpanRecord] = []
        self._stack: list[str] = []
        #: Add to a record's monotonic ``start`` to get epoch seconds —
        #: the bridge that lets spans from different processes merge
        #: onto one wall-clock timeline.
        self.epoch_offset = time.time() - time.perf_counter()

    def span(self, name: str) -> _OpenSpan:
        """A context manager timing one nested phase."""
        return _OpenSpan(self, name)


# ----------------------------------------------------------------------
# The process-wide active recorder (None = telemetry disabled).
# ----------------------------------------------------------------------
_active: SpanRecorder | None = None


def span(name: str) -> _OpenSpan | _NullSpan:
    """Module-level entry point instrumentation sites call.

    With no active recorder this returns a shared no-op singleton — no
    allocation, no clock reads.
    """
    recorder = _active
    if recorder is None:
        return _NULL_SPAN
    return recorder.span(name)


class recording:
    """Install ``recorder`` as the active recorder for a ``with`` block.

    ``recording(None)`` is a no-op scope (telemetry stays off), so call
    sites can write ``with recording(maybe_recorder): ...`` without
    branching.  The previous recorder is restored on exit.
    """

    __slots__ = ("_recorder", "_previous")

    def __init__(self, recorder: SpanRecorder | None) -> None:
        self._recorder = recorder
        self._previous: SpanRecorder | None = None

    def __enter__(self) -> SpanRecorder | None:
        global _active
        self._previous = _active
        if self._recorder is not None:
            _active = self._recorder
        return self._recorder

    def __exit__(self, *exc_info: object) -> None:
        global _active
        if self._recorder is not None:
            _active = self._previous


# ----------------------------------------------------------------------
# Aggregation and serialization.
# ----------------------------------------------------------------------
def records_as_dicts(recorder: SpanRecorder | None) -> list[dict[str, Any]]:
    """JSON-ready records, start times rebased to the epoch and ordered
    by start time (deterministic regardless of exit order)."""
    if recorder is None:
        return []
    offset = recorder.epoch_offset
    rows = [
        {
            "path": record.path,
            "name": record.name,
            "start": record.start + offset,
            "wall": record.wall,
            "cpu": record.cpu,
        }
        for record in recorder.records
    ]
    rows.sort(key=lambda row: (row["start"], row["path"]))
    return rows


def phase_totals(records: Iterable[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Per-path totals: ``{path: {"wall", "cpu"}}``.

    Multiple records with one path (e.g. a phase entered once per
    retry) merge by summation.
    """
    totals: dict[str, dict[str, Any]] = {}
    for record in records:
        path = str(record["path"])
        entry = totals.get(path)
        if entry is None:
            totals[path] = {
                "wall": float(record["wall"]),
                "cpu": float(record["cpu"]),
            }
        else:
            entry["wall"] += float(record["wall"])
            entry["cpu"] += float(record["cpu"])
    return totals


def breakdown(
    records: Iterable[dict[str, Any]], root: str = "point"
) -> dict[str, dict[str, float]]:
    """Wall/CPU of ``root``'s *direct* children, self-time as ``<self>``.

    Each child's time includes its own subtree (a child's nested spans
    are part of that phase); ``<self>`` is whatever part of ``root``'s
    wall none of its children account for.  The values therefore sum to
    exactly the root span's measurements — the property the manifest's
    per-point phase breakdown leans on.  Returns ``{}`` when no record
    matches ``root``.
    """
    totals = phase_totals(records)
    root_entry = totals.get(root)
    if root_entry is None:
        return {}
    prefix = root + "/"
    result: dict[str, dict[str, float]] = {}
    child_wall = 0.0
    child_cpu = 0.0
    for path, entry in totals.items():
        if not path.startswith(prefix):
            continue
        rest = path[len(prefix) :]
        if "/" in rest:
            continue  # grandchild: already inside its parent's time
        result[rest] = {
            "wall": float(entry["wall"]),
            "cpu": float(entry["cpu"]),
        }
        child_wall += float(entry["wall"])
        child_cpu += float(entry["cpu"])
    result["<self>"] = {
        "wall": max(0.0, float(root_entry["wall"]) - child_wall),
        "cpu": max(0.0, float(root_entry["cpu"]) - child_cpu),
    }
    return result
