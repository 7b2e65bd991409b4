"""The sweep engine: deterministic fan-out of sweep points.

:class:`SweepRunner` executes a list of :class:`~repro.runner.point.
SweepPoint` and returns results **in point order**, regardless of
completion order, worker count, or cache state — the invariant every
experiment driver leans on.  Three paths produce the same bits:

* ``jobs=1`` — the in-process path: each point runs through
  :func:`~repro.runner.telemetry.execute_point_task`, in order, and
  exceptions propagate unchanged;
* ``jobs>1`` — the same task fans out over a ``ProcessPoolExecutor``;
  the sweep drains, then the *first failing point by sweep order* is
  re-raised (deterministic, not completion-order-dependent);
* cache hits — points whose digest is already in the
  :class:`~repro.runner.cache.ResultCache` skip execution entirely.

Identical points inside one sweep (same digest) execute once and fan
the result out to every position.  Counters land in an
:class:`~repro.obs.metrics.MetricsRegistry` under ``runner.*``.

Every failure is a typed error, never a hang: a worker that dies
mid-point raises one :class:`~repro.errors.RunnerError` naming every
point in flight, and a stalled sweep raises
:class:`~repro.errors.PointTimeoutError`.  A ``KeyboardInterrupt``
tears the pool down and propagates.  Each point is stored in the cache
the moment it completes, so a plain rerun over the same cache executes
only the points an interrupted or failed sweep left behind.
"""

from __future__ import annotations

import contextlib
import os
import signal
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from ..errors import PointTimeoutError, RunnerError
from ..obs.metrics import MetricsRegistry
from .cache import ResultCache
from .digest import point_digest
from .executors import release_records
from .point import SweepPoint
from .telemetry import PointTelemetry, ProgressLine, execute_point_task

__all__ = ["SweepRunner", "get_default_runner", "set_default_runner",
           "using_runner"]


def _init_worker() -> None:
    """Reset signal dispositions in pool workers.  Fork-based workers
    inherit the parent's handlers — including the CLI's SIGTERM →
    ``KeyboardInterrupt`` mapping — which would make them *survive* the
    terminates :meth:`SweepRunner._abort_pool` relies on.  SIGINT is
    ignored (a terminal Ctrl-C signals the whole foreground process
    group; only the parent should see it), SIGTERM restored to its
    default so aborts kill."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _prebuild_programs(points: "list[SweepPoint]") -> None:
    """Warm the shared program cache for every (workload, scale) in the
    sweep, so forked workers inherit one build instead of re-assembling
    per process (spawn-based platforms rebuild once per worker)."""
    from ..workloads import build_program

    for point in points:
        if point.workload is not None:
            build_program(point.workload, point.scale)


class SweepRunner:
    """Executes sweep points with optional parallelism and caching.

    ``jobs=1`` runs every point in process, in order; ``None`` means
    one worker per CPU.  ``timeout`` bounds, in seconds, how long
    a parallel sweep waits for *any* point to complete, so a hung
    simulation surfaces as a :class:`~repro.errors.PointTimeoutError`
    instead of a silent stall.
    """

    def __init__(self, jobs: "int | None" = None,
                 cache: "ResultCache | None" = None,
                 registry: "MetricsRegistry | None" = None,
                 timeout: "float | None" = None,
                 progress: "bool | None" = False,
                 telemetry: bool = False):
        if jobs is not None and jobs < 1:
            raise RunnerError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and not timeout > 0:  # also rejects NaN
            raise RunnerError(f"timeout must be > 0 seconds, got {timeout}")
        self.jobs = int(jobs) if jobs is not None else (os.cpu_count() or 1)
        self.cache = cache
        self.registry = registry if registry is not None else MetricsRegistry()
        self.timeout = timeout
        #: ``True``/``False`` force the live progress line on/off;
        #: ``None`` auto-detects (on only when stderr is a TTY).
        self.progress = progress
        #: Collect per-point spans and :class:`PointTelemetry` (the raw
        #: material for run manifests and merged Chrome traces).
        self.telemetry = telemetry
        self._wall_seconds = 0.0
        #: Per-position telemetry across every ``run()`` this runner has
        #: served, in sweep order (``index`` is the global position).
        self.point_telemetry: "list[PointTelemetry]" = []

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------
    def run(self, points) -> "list[object]":
        """Execute every point; results come back in point order."""
        points = list(points)
        registry = self.registry
        registry.counter("runner.points.total").inc(len(points))
        start = time.perf_counter()
        base = len(self.point_telemetry)
        results: "list[object]" = [None] * len(points)
        code = self.cache.code_version if self.cache is not None else ""
        digests = [point_digest(point, code) for point in points]

        # Resolve cache hits and dedup the remainder by digest.
        pending: "dict[str, list[int]]" = {}
        cached_indices: "list[int]" = []
        for index, (point, digest) in enumerate(zip(points, digests)):
            if self.cache is not None:
                hit, value = self.cache.load(point, digest=digest)
                if hit:
                    registry.counter("runner.cache.hit").inc()
                    registry.counter("runner.points.cached").inc()
                    results[index] = value
                    cached_indices.append(index)
                    continue
                registry.counter("runner.cache.miss").inc()
            pending.setdefault(digest, []).append(index)
        duplicates = sum(len(slots) - 1 for slots in pending.values())
        if duplicates:
            registry.counter("runner.points.deduped").inc(duplicates)

        progress = ProgressLine(len(points), enabled=self.progress)
        payloads: "dict[str, dict]" = {}
        # Points with one key share a held record stream
        # (:mod:`repro.runner.executors`); none outlives a batch, and
        # pool workers fork holding none.
        release_records()
        try:
            if pending:
                _prebuild_programs([points[slots[0]]
                                    for slots in pending.values()])
                if self.jobs == 1:
                    executed = self._run_serial(points, pending, start,
                                                payloads, progress,
                                                len(cached_indices))
                else:
                    executed = self._run_parallel(points, pending, start,
                                                  payloads, progress,
                                                  len(cached_indices))
                for digest, value in executed.items():
                    for index in pending[digest]:
                        results[index] = value
            elif points:
                progress.update(len(points), len(cached_indices), 0)
        finally:
            release_records()
            progress.finish()
            # Collected even when the sweep raises (interruption,
            # timeout, failure): every payload gathered so far becomes
            # a manifest row, which is what makes a partial
            # ``status: interrupted`` manifest possible.
            self._collect_telemetry(points, digests, pending,
                                    cached_indices, payloads, base)
            self._wall_seconds += time.perf_counter() - start
            registry.gauge("runner.wall_seconds").set(self._wall_seconds)
            if self.cache is not None:
                errors = registry.counter("runner.cache.store_errors")
                if self.cache.store_errors > errors.value:
                    errors.inc(self.cache.store_errors - errors.value)
        return results

    def _collect_telemetry(self, points, digests, pending, cached_indices,
                           payloads, base) -> None:
        """Append one :class:`PointTelemetry` per sweep position, in
        sweep order — cached positions with zero cost, deduped
        positions sharing the executing position's measurements."""
        rows: "dict[int, PointTelemetry]" = {}
        for index in cached_indices:
            rows[index] = self._telemetry_entry(base, index, points[index],
                                                digests[index], cached=True)
        for digest, slots in pending.items():
            payload = payloads.get(digest)
            if payload is None:
                continue  # failed (the sweep raises) or never finished
            for position, index in enumerate(slots):
                rows[index] = self._telemetry_entry(
                    base, index, points[index], digest,
                    deduped=position > 0,
                    wall=float(payload["wall"]), cpu=float(payload["cpu"]),
                    worker=payload.get("worker"),
                    spans=list(payload.get("spans", ())),
                )
        self.point_telemetry.extend(rows[index] for index in sorted(rows))

    @staticmethod
    def _telemetry_entry(base, index, point, digest, **kwargs):
        return PointTelemetry(
            index=base + index,
            label=point.label or point.kind,
            kind=point.kind,
            workload=point.workload,
            scale=point.scale,
            limit=point.limit,
            digest=digest,
            **kwargs,
        )

    def summary(self) -> str:
        """One-line accounting of everything this runner has done."""
        registry = self.registry
        total = registry.counter("runner.points.total").value
        hits = registry.counter("runner.cache.hit").value
        misses = registry.counter("runner.cache.miss").value
        executed = registry.counter("runner.points.executed").value
        deduped = registry.counter("runner.points.deduped").value
        rate = f"{hits / total:.0%}" if total else "n/a"
        wall = registry.gauge("runner.wall_seconds").value
        return (f"[runner] jobs={self.jobs} points={total} "
                f"executed={executed} deduped={deduped} "
                f"cache_hits={hits} cache_misses={misses} "
                f"cache_hit_rate={rate} wall={wall:.1f}s")

    # ------------------------------------------------------------------
    # Execution paths.
    # ------------------------------------------------------------------
    def _record_done(self, point: SweepPoint, digest: str, value: object,
                     seconds: float, start: float) -> None:
        registry = self.registry
        registry.counter("runner.points.executed").inc()
        registry.histogram("runner.point_seconds").record(seconds)
        registry.series("runner.completed_at").append(
            time.perf_counter() - start)
        if self.cache is not None:
            self.cache.store(point, value, digest=digest)

    def _run_serial(self, points, pending, start, payloads,
                    progress, cached) -> "dict[str, object]":
        """In-process execution, in sweep order, failing fast with the
        point's own exception."""
        executed: "dict[str, object]" = {}
        done_positions = cached
        slowest: "tuple[str, float] | None" = None
        for digest, slots in pending.items():
            point = points[slots[0]]
            try:
                value, payload = execute_point_task(point, self.telemetry)
            except Exception:
                self.registry.counter("runner.points.failed").inc()
                raise
            payload["worker"] = None  # in process: the "serial" track
            seconds = payload["wall"]
            executed[digest] = value
            payloads[digest] = payload
            self._record_done(point, digest, value, seconds, start)
            done_positions += len(slots)
            if slowest is None or seconds > slowest[1]:
                slowest = (point.label or point.kind, seconds)
            progress.update(done_positions, cached, 0, slowest,
                            executed=len(executed),
                            remaining=len(pending) - len(executed))
        return executed

    def _run_parallel(self, points, pending, start, payloads,
                      progress, cached) -> "dict[str, object]":
        """Process-pool execution with a progress timeout; the sweep
        drains, then the earliest failure by point order (if any) is
        re-raised.

        Submission is windowed (at most ``jobs`` digests in flight), so
        when a worker death breaks the pool the error names a small,
        exact set of suspects.  Results and span payloads travel
        in-band through the futures, and the progress line is redrawn
        as they complete.
        """
        registry = self.registry
        order = {digest: slots[0] for digest, slots in pending.items()}
        executed: "dict[str, object]" = {}
        failures: "dict[str, BaseException]" = {}
        failed_after: "dict[str, float]" = {}
        workers = min(self.jobs, len(pending))
        slowest: "tuple[str, float] | None" = None
        submitted: "dict[str, float]" = {}
        #: Digests awaiting submission, in sweep order.
        queue = deque(sorted(pending, key=order.__getitem__))
        futures: "dict[object, str]" = {}
        pool = ProcessPoolExecutor(max_workers=workers,
                                   initializer=_init_worker)

        def show_progress() -> None:
            done_positions = cached + sum(
                len(pending[digest]) for digest in executed)
            progress.update(done_positions, cached, len(futures), slowest,
                            executed=len(executed),
                            remaining=len(pending) - len(executed))

        def harvest(future, now: float) -> None:
            """Consume one completed future (never a broken-pool one)."""
            nonlocal slowest
            digest = futures.pop(future)
            point = points[order[digest]]
            try:
                value, payload = future.result()
            except Exception as exc:
                registry.counter("runner.points.failed").inc()
                failures[digest] = exc
                failed_after[digest] = now - submitted[digest]
                return
            executed[digest] = value
            payloads[digest] = payload
            seconds = float(payload["wall"])
            if slowest is None or seconds > slowest[1]:
                slowest = (point.label or point.kind, seconds)
            self._record_done(point, digest, value, seconds, start)

        last_completion = time.perf_counter()
        try:
            show_progress()
            while queue or futures:
                while queue and len(futures) < workers:
                    digest = queue.popleft()
                    submitted[digest] = time.perf_counter()
                    futures[pool.submit(execute_point_task,
                                        points[order[digest]],
                                        self.telemetry)] = digest
                done, _ = wait(futures, timeout=self.timeout,
                               return_when=FIRST_COMPLETED)
                now = time.perf_counter()
                if not done:
                    if now - last_completion >= self.timeout:
                        raise PointTimeoutError(
                            f"no sweep point completed within "
                            f"{self.timeout}s ({len(futures) + len(queue)} "
                            f"outstanding; in flight by sweep order: "
                            f"{self._describe(points, order, futures, submitted)})"
                        )
                    continue
                last_completion = now
                broken = None
                for future in done:
                    if isinstance(future.exception(), BrokenProcessPool):
                        # Still in flight: named below, once every point
                        # that finished before the break is harvested.
                        broken = future.exception()
                    else:
                        harvest(future, now)
                if broken is not None:
                    raise broken
                show_progress()
        except BrokenProcessPool as exc:
            raise RunnerError(
                f"a sweep worker process died (killed, out of memory, or "
                f"exited) with {len(futures)} point(s) in flight: "
                f"{self._describe(points, order, futures, submitted)}"
            ) from exc
        finally:
            self._abort_pool(pool)
        if failures:
            digest = min(failures, key=order.__getitem__)
            point = points[order[digest]]
            raise RunnerError(
                f"{len(failures)} sweep point(s) failed; first by sweep "
                f"order: {point.label or point.kind} (kind={point.kind}, "
                f"failed after {failed_after[digest]:.1f}s)"
            ) from failures[digest]
        return executed

    @staticmethod
    def _abort_pool(pool) -> None:
        """Tear a pool down without joining its tasks.  ``cancel()``
        cannot stop a *running* task, and the pool's blocking shutdown
        would join it — a hung simulation would block the timeout error
        itself — so remaining workers are terminated outright (idle
        workers on the normal path just exit a little sooner)."""
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.terminate()

    @staticmethod
    def _describe(points, order, futures, submitted) -> str:
        """The points in flight, earliest sweep position first:
        ``label (kind, 12.3s since submit)``.  Windowed submission
        bounds the list at ``jobs`` entries."""
        now = time.perf_counter()
        parts = []
        for digest in sorted(futures.values(), key=order.__getitem__):
            point = points[order[digest]]
            elapsed = now - submitted[digest]
            parts.append(f"{point.label or point.kind} "
                         f"({point.kind}, {elapsed:.1f}s since submit)")
        return ", ".join(parts)


# ----------------------------------------------------------------------
# The process-wide default runner experiment drivers fall back to.
# ----------------------------------------------------------------------
_default_runner: "SweepRunner | None" = None


def get_default_runner() -> SweepRunner:
    """The runner drivers use when none is passed explicitly: serial,
    uncached, in-process — today's behavior — unless the CLI (or a
    caller) installed something richer via :func:`set_default_runner`."""
    global _default_runner
    if _default_runner is None:
        _default_runner = SweepRunner(jobs=1)
    return _default_runner


def set_default_runner(runner: "SweepRunner | None") -> "SweepRunner | None":
    """Install (or, with ``None``, reset) the process default; returns
    the previous default so callers can restore it."""
    global _default_runner
    previous = _default_runner
    _default_runner = runner
    return previous


@contextlib.contextmanager
def using_runner(runner: SweepRunner):
    """Scope a default runner to a ``with`` block."""
    previous = set_default_runner(runner)
    try:
        yield runner
    finally:
        set_default_runner(previous)
