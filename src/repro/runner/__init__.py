"""Parallel sweep engine with content-addressed result caching.

Experiments are expressed as lists of :class:`SweepPoint` and executed
by a :class:`SweepRunner`, which fans points out over a process pool
(``jobs>1``), dedups identical points, and short-circuits points whose
content digest is already in a :class:`ResultCache`.  Results always
come back in point order and are bit-identical across ``jobs=1``,
``jobs=N``, and cache-hit paths.  Every executed point runs through one
task function, :func:`execute_point_task` — in process at ``jobs=1``,
in a pool worker otherwise.

Every failure is a typed error, never a hang: a dead worker raises a
:class:`~repro.errors.RunnerError` naming the points in flight, and a
stalled sweep a :class:`~repro.errors.PointTimeoutError`.  Each point
is cached the moment it completes, so rerunning an interrupted sweep
over the same cache executes only what is missing.  See
``docs/runner.md`` for the full tour.
"""

from .cache import ResultCache, default_cache_dir
from .digest import (canonicalize, code_version, point_digest,
                     result_fingerprint)
from .engine import (SweepRunner, get_default_runner, set_default_runner,
                     using_runner)
from .executors import EXECUTORS, execute_point
from .manifest import RunManifest
from .point import SweepPoint
from .telemetry import (PointTelemetry, ProgressLine, execute_point_task,
                        worker_tracks)

__all__ = [
    "SweepPoint",
    "SweepRunner",
    "ResultCache",
    "RunManifest",
    "PointTelemetry",
    "ProgressLine",
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
