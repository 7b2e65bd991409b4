"""Parallel sweep engine with content-addressed result caching.

Experiments are expressed as lists of :class:`SweepPoint` and executed
by a :class:`SweepRunner`, which fans points out over a process pool
(``jobs>1``), dedups identical points, and short-circuits points whose
content digest is already in a :class:`ResultCache`.  Results always
come back in point order and are bit-identical across ``jobs=1``,
``jobs=N``, and cache-hit paths.

The engine is crash-safe: a :class:`SweepJournal` write-ahead log makes
sweeps resumable after any interruption, worker deaths are recovered by
pool rebuild (with quarantine for points that keep killing workers),
and :mod:`repro.faults.chaos` injects those failures deterministically
to prove it.  See ``docs/runner.md`` for the full tour.
"""

from .cache import ResultCache, default_cache_dir
from .digest import (canonicalize, code_version, point_digest,
                     result_fingerprint)
from .engine import (SweepRunner, get_default_runner, set_default_runner,
                     using_runner)
from .executors import EXECUTORS, execute_point
from .journal import JOURNAL_SCHEMA, JournalState, SweepJournal
from .manifest import RunManifest
from .point import SweepPoint
from .telemetry import (PointTelemetry, ProgressLine, TelemetryReader,
                        TelemetryWriter, execute_point_task, worker_tracks)

__all__ = [
    "SweepPoint",
    "SweepRunner",
    "ResultCache",
    "RunManifest",
    "SweepJournal",
    "JournalState",
    "JOURNAL_SCHEMA",
    "PointTelemetry",
    "ProgressLine",
    "TelemetryReader",
    "TelemetryWriter",
    "default_cache_dir",
    "canonicalize",
    "code_version",
    "point_digest",
    "result_fingerprint",
    "execute_point",
    "execute_point_task",
    "worker_tracks",
    "EXECUTORS",
    "get_default_runner",
    "set_default_runner",
    "using_runner",
]
