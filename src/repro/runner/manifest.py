"""Run manifests: the structured per-sweep report behind ``--report-out``.

A :class:`RunManifest` captures everything needed to compare two runs
of the same sweep — the environment and code-version stamp it ran
under, one row per sweep position (digest, cache state, wall/CPU
seconds, worker, per-point phase breakdown from
:mod:`repro.obs.spans`), and the runner's full
:class:`~repro.obs.metrics.MetricsRegistry` snapshot.  It serializes
to a single JSON document stamped ``repro-run-manifest/1``::

    python -m repro.experiments figure7 --jobs 4 --report-out run.json

A manifest explains where one sweep's wall clock went; it is not a
speed gate.  The simulator's speed is measured by
``benchmarks/perf/run.py`` (see ``benchmarks/perf/README.md``).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

from ..obs.spans import breakdown
from .digest import code_version
from .telemetry import PointTelemetry

__all__ = ["MANIFEST_SCHEMA", "RunManifest", "environment_info"]

#: Schema stamp of the manifest document format.
MANIFEST_SCHEMA = "repro-run-manifest/1"


def environment_info() -> "dict[str, object]":
    """Where this run happened (the manifest's ``environment`` block)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


class RunManifest:
    """One sweep's structured report.

    Built from a live :class:`~repro.runner.engine.SweepRunner` via
    :meth:`from_runner` (requires ``telemetry=True`` so per-point
    measurements exist), or rehydrated from JSON via :meth:`load` /
    :meth:`from_dict`.
    """

    def __init__(self, points: "list[dict]", metrics: "dict | None" = None,
                 jobs: int = 1, wall_seconds: float = 0.0,
                 environment: "dict | None" = None,
                 code: "str | None" = None,
                 created: "float | None" = None,
                 status: str = "complete"):
        self.schema = MANIFEST_SCHEMA
        self.created = time.time() if created is None else created
        self.environment = (environment_info() if environment is None
                            else environment)
        self.code_version = code_version() if code is None else code
        self.jobs = jobs
        self.wall_seconds = wall_seconds
        #: ``"complete"`` for a sweep that ran to the end,
        #: ``"interrupted"`` for a partial manifest written after
        #: SIGINT/SIGTERM (the rows present are still final — every
        #: executed one was cached before the stop).
        self.status = status
        #: One row per sweep position, in sweep order.
        self.points = points
        self.metrics = metrics if metrics is not None else {}

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------
    @classmethod
    def from_runner(cls, runner, status: str = "complete") -> "RunManifest":
        """Snapshot everything ``runner`` has executed so far.

        ``status="interrupted"`` marks the partial manifest an
        interrupted sweep writes on its way out — the rows are whatever
        completed (and was cached) before the stop.
        """
        rows = [cls._point_row(point) for point in runner.point_telemetry]
        wall = float(runner.registry.gauge("runner.wall_seconds").value)
        return cls(points=rows, metrics=runner.registry.as_dict(),
                   jobs=runner.jobs, wall_seconds=wall, status=status)

    @staticmethod
    def _point_row(point: PointTelemetry) -> "dict[str, object]":
        row = point.to_dict()
        row["wall_seconds"] = row.pop("wall")
        row["cpu_seconds"] = row.pop("cpu")
        spans = row.pop("spans")
        phases = {
            name: entry["wall"]
            for name, entry in breakdown(spans).items()
        }
        if phases:
            # breakdown() sums exactly to the root span's wall; the
            # task wall additionally includes worker-side time outside
            # the span (scheduler preemption between clock reads, task
            # dispatch).  Charge it explicitly so the phases always sum
            # to ``wall_seconds``.
            untracked = row["wall_seconds"] - sum(phases.values())
            if untracked > 0:
                phases["<untracked>"] = untracked
        row["phases"] = phases
        # Second-level breakdown of the timing loop itself (frontend /
        # commit / memory / issue / fault-recovery accumulators plus
        # the untimed remainder as <self>).  Additive: consumers that
        # predate it simply ignore the key.
        timing = {
            name: entry["wall"]
            for name, entry in breakdown(
                spans, root="point/timing-loop").items()
        }
        if timing:
            row["timing_phases"] = timing
        return row

    # ------------------------------------------------------------------
    # Serialization.
    # ------------------------------------------------------------------
    def to_dict(self) -> "dict[str, object]":
        return {
            "schema": self.schema,
            "created": self.created,
            "environment": self.environment,
            "code_version": self.code_version,
            "jobs": self.jobs,
            "status": self.status,
            "wall_seconds": self.wall_seconds,
            "points": self.points,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: "dict") -> "RunManifest":
        schema = data.get("schema")
        if schema != MANIFEST_SCHEMA:
            from ..errors import ReproError

            raise ReproError(
                f"not a run manifest: schema={schema!r} "
                f"(expected {MANIFEST_SCHEMA!r})")
        manifest = cls(
            points=list(data.get("points", ())),
            metrics=dict(data.get("metrics", {})),
            jobs=int(data.get("jobs", 1)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            environment=dict(data.get("environment", {})),
            code=str(data.get("code_version", "")),
            created=float(data.get("created", 0.0)),
            status=str(data.get("status", "complete")),
        )
        return manifest

    def write(self, path: str) -> None:
        """Write the manifest as pretty-printed JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    # ------------------------------------------------------------------
    # Convenience accessors (reports, tests).
    # ------------------------------------------------------------------
    def executed_points(self) -> "list[dict]":
        """Rows that actually ran a simulation in this sweep (not
        cache hits, not dedup aliases)."""
        return [row for row in self.points
                if not row.get("cached") and not row.get("deduped")
                and float(row.get("wall_seconds", 0.0)) > 0.0]

    def cache_hit_rate(self) -> float:
        if not self.points:
            return 0.0
        hits = sum(1 for row in self.points if row.get("cached"))
        return hits / len(self.points)

    def summary(self) -> str:
        executed = len(self.executed_points())
        line = (f"[manifest] points={len(self.points)} executed={executed} "
                f"cache_hit_rate={self.cache_hit_rate():.0%} "
                f"wall={self.wall_seconds:.1f}s jobs={self.jobs} "
                f"code={self.code_version[:12]}")
        if self.status != "complete":
            line += f" status={self.status}"
        return line
