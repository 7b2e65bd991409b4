"""The sweep engine: deterministic fan-out of sweep points.

:class:`SweepRunner` executes a list of :class:`~repro.runner.point.
SweepPoint` and returns results **in point order**, regardless of
completion order, worker count, or cache state — the invariant every
experiment driver leans on.  Three paths produce the same bits:

* ``jobs=1`` — today's in-process path, exactly: each point's executor
  is called directly, in order, and exceptions propagate unchanged;
* ``jobs>1`` — points fan out over a ``ProcessPoolExecutor``; a failed
  point is retried up to ``retries`` times, and if it still fails the
  *first failing point by sweep order* is re-raised after the rest of
  the sweep completes (deterministic, not completion-order-dependent);
* cache hits — points whose digest is already in the
  :class:`~repro.runner.cache.ResultCache` skip execution entirely.

Identical points inside one sweep (same digest) execute once and fan
the result out to every position.  Counters land in an
:class:`~repro.obs.metrics.MetricsRegistry` under ``runner.*``.

Crash safety (see ``docs/runner.md``, "Crash safety, resume, and chaos
testing"):

* **worker loss** — a worker that dies mid-point (OOM kill, segfault,
  injected ``os._exit``) breaks the process pool; the engine rebuilds
  the pool (``runner.pool.rebuilds``), pauses with deterministic
  seeded exponential backoff, and re-executes the points that were in
  flight *one at a time* so blame is attributed precisely.  A point
  that keeps killing workers is quarantined after
  ``worker_death_budget`` attributed deaths
  (:class:`~repro.errors.PointQuarantinedError`,
  ``runner.points.quarantined``) while the rest of the sweep drains
  normally;
* **durability** — with a :class:`~repro.runner.journal.SweepJournal`
  attached, every submit/done/failed/quarantined transition is fsync'd
  to an append-only JSONL log *after* the result reaches the cache, so
  a later run over the same journal and cache re-executes only
  unfinished work;
* **cancellation** — :meth:`SweepRunner.request_cancel` (wired to
  SIGINT/SIGTERM by the experiments CLI) stops the sweep at the next
  scheduler round: outstanding futures are cancelled, workers are torn
  down, an ``interrupted`` record is journaled, and
  :class:`~repro.errors.SweepInterruptedError` carries the tally —
  completed points are already durable;
* **chaos** — ``chaos=ChaosConfig(...)`` arms seeded process-level
  fault injection (:mod:`repro.faults.chaos`) in the workers; with
  recovery budgets at least the chaos fault budget, results are
  bit-identical to a chaos-free sweep.
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import signal
import tempfile
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from ..errors import (PointQuarantinedError, PointTimeoutError, RunnerError,
                      SweepInterruptedError)
from ..obs import spans
from ..obs.metrics import MetricsRegistry
from .cache import ResultCache
from .digest import point_digest
from .executors import execute_point
from .journal import SweepJournal
from .point import SweepPoint
from .telemetry import (PointTelemetry, ProgressLine, TelemetryReader,
                        execute_point_task)

__all__ = ["SweepRunner", "get_default_runner", "set_default_runner",
           "using_runner"]

#: Seconds between spool polls while the live progress line is on.
PROGRESS_POLL_SECONDS = 0.2
#: Upper bound on any scheduler wait, so a cancellation request
#: (signal handlers only set a flag) is noticed promptly even when no
#: point completes and no progress line is drawn.
CANCEL_POLL_SECONDS = 0.5
#: Cap on one crash-backoff pause, whatever the exponential says.
MAX_CRASH_BACKOFF_SECONDS = 2.0


def _init_worker() -> None:
    """Reset signal dispositions in pool workers.  Fork-based workers
    inherit the parent's handlers — including the CLI's graceful-cancel
    SIGINT/SIGTERM handler — which would make them *survive* the
    terminates :meth:`SweepRunner._abort_pool` relies on, and echo the
    parent's cancellation notice from every worker.  SIGINT is ignored
    (a terminal Ctrl-C signals the whole foreground process group; only
    the parent should turn it into a graceful cancellation, not a
    broken pool), SIGTERM restored to its default so aborts kill."""
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

    ``jobs=1`` (with ``retries=0``, the default) is byte-for-byte
    today's serial driver path.  ``timeout`` bounds one point's
    execution in seconds: in workers it also bounds how long the engine
    waits for *any* progress, so a hung simulation surfaces as a
    :class:`~repro.errors.RunnerError` instead of a silent stall.
    """

    def __init__(self, jobs: "int | None" = None,
                 cache: "ResultCache | None" = None,
                 registry: "MetricsRegistry | None" = None,
                 timeout: "float | None" = None,
                 retries: int = 0,
                 progress: "bool | None" = False,
                 telemetry: bool = False,
                 journal: "SweepJournal | str | None" = None,
                 chaos=None,
                 worker_death_budget: int = 3,
                 crash_backoff: float = 0.1,
                 backoff_seed: int = 0):
        self.jobs = int(jobs) if jobs else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise RunnerError(f"jobs must be >= 1, got {jobs}")
        self.cache = cache
        self.registry = registry if registry is not None else MetricsRegistry()
        self.timeout = timeout
        self.retries = retries
        #: ``True``/``False`` force the live progress line on/off;
        #: ``None`` auto-detects (on only when stderr is a TTY).
        self.progress = progress
        #: Collect per-point spans and :class:`PointTelemetry` (the raw
        #: material for run manifests and merged Chrome traces).
        self.telemetry = telemetry
        #: Durable progress log (a :class:`SweepJournal`; a path string
        #: starts a fresh journal there, rotating any old one aside).
        self.journal = (SweepJournal.create(journal)
                        if isinstance(journal, (str, os.PathLike))
                        else journal)
        #: Attributed worker deaths a single point may cause before it
        #: is quarantined instead of resubmitted.
        self.worker_death_budget = int(worker_death_budget)
        if self.worker_death_budget < 1:
            raise RunnerError("worker_death_budget must be >= 1")
        #: Base pause after a pool rebuild, doubled per rebuild with
        #: seeded jitter (0 disables the pause; tests use that).
        self.crash_backoff = float(crash_backoff)
        self._crash_rng = random.Random(backoff_seed)
        #: Process-level fault injection
        #: (:class:`repro.faults.chaos.ChaosConfig`); parallel only —
        #: an injected worker exit must kill a *worker*, never the
        #: driver process.
        self.chaos = chaos
        if chaos is not None and getattr(chaos, "enabled", False):
            if self.jobs == 1:
                raise RunnerError(
                    "chaos injection requires jobs > 1 (injected worker "
                    "exits would kill the in-process driver)")
            if cache is not None and cache.fault_injector is None \
                    and getattr(chaos, "cache_error_prob", 0) > 0:
                from ..faults.chaos import ChaosPlan

                cache.fault_injector = ChaosPlan(chaos).fs_injector()
        self._cancel_requested = False
        self._wall_seconds = 0.0
        #: Per-position telemetry across every ``run()`` this runner has
        #: served, in sweep order (``index`` is the global position).
        self.point_telemetry: "list[PointTelemetry]" = []

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------
    def request_cancel(self) -> None:
        """Ask the running sweep to stop at the next scheduler round.

        Signal-safe (only sets a flag): the experiments CLI wires
        SIGINT/SIGTERM here.  The sweep raises
        :class:`~repro.errors.SweepInterruptedError` after cancelling
        outstanding work and journaling an ``interrupted`` record —
        every already-completed point is in the cache and journal, so a
        ``--resume`` run re-executes only the remainder.
        """
        self._cancel_requested = True

    @property
    def cancel_requested(self) -> bool:
        return self._cancel_requested

    def run(self, points) -> "list[object]":
        """Execute every point; results come back in point order."""
        points = list(points)
        registry = self.registry
        journal = self.journal
        journal_base = journal.appended if journal is not None else 0
        registry.counter("runner.points.total").inc(len(points))
        start = time.perf_counter()
        base = len(self.point_telemetry)
        results: "list[object]" = [None] * len(points)
        code = self.cache.code_version if self.cache is not None else ""
        digests = [point_digest(point, code) for point in points]
        if journal is not None:
            journal.append("run-start", points=len(points), jobs=self.jobs)

        # Resolve cache hits and dedup the remainder by digest.
        pending: "dict[str, list[int]]" = {}
        cached_indices: "list[int]" = []
        for index, (point, digest) in enumerate(zip(points, digests)):
            if self.cache is not None:
                hit, value = self.cache.load(point, digest=digest)
                if hit:
                    registry.counter("runner.cache.hit").inc()
                    registry.counter("runner.points.cached").inc()
                    if journal is not None and journal.state.completed(digest):
                        # A resumed sweep replaying finished work from
                        # journal + cache, exactly as designed.
                        registry.counter("runner.journal.replayed").inc()
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
            progress.finish()
            # Collected even when the sweep raises (interruption,
            # quarantine, timeout): every payload gathered so far
            # becomes a manifest row, which is what makes a partial
            # ``status: interrupted`` manifest possible.
            self._collect_telemetry(points, digests, pending,
                                    cached_indices, payloads, base)
            self._wall_seconds += time.perf_counter() - start
            registry.gauge("runner.wall_seconds").set(self._wall_seconds)
            if journal is not None:
                registry.counter("runner.journal.records").inc(
                    journal.appended - journal_base)
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
                continue  # failed (the sweep raises) or timed out
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
        line = (f"[runner] jobs={self.jobs} points={total} "
                f"executed={executed} deduped={deduped} "
                f"cache_hits={hits} cache_misses={misses} "
                f"cache_hit_rate={rate} wall={wall:.1f}s")
        rebuilds = registry.counter("runner.pool.rebuilds").value
        quarantined = registry.counter("runner.points.quarantined").value
        if rebuilds or quarantined:
            line += (f" pool_rebuilds={rebuilds} "
                     f"quarantined={quarantined}")
        return line

    # ------------------------------------------------------------------
    # Execution paths.
    # ------------------------------------------------------------------
    def _journal(self, event: str, **fields) -> None:
        if self.journal is not None:
            self.journal.append(event, **fields)

    def _record_done(self, point: SweepPoint, digest: str, value: object,
                     seconds: float, start: float) -> None:
        registry = self.registry
        registry.counter("runner.points.executed").inc()
        registry.histogram("runner.point_seconds").record(seconds)
        registry.series("runner.completed_at").append(
            time.perf_counter() - start)
        stored = False
        if self.cache is not None:
            # Store *before* the journal's done record: "done" in the
            # journal promises the cache can serve this digest, which
            # is what lets a resume replay it without re-executing.
            stored = bool(self.cache.store(point, value, digest=digest))
        self._journal("done", digest=digest,
                      label=point.label or point.kind,
                      seconds=round(seconds, 6), cached=stored)

    def _record_failed(self, point: SweepPoint, digest: str,
                       exc: BaseException) -> None:
        self.registry.counter("runner.points.failed").inc()
        self._journal("failed", digest=digest,
                      label=point.label or point.kind,
                      error=f"{type(exc).__name__}: {exc}")

    def _raise_interrupted(self, executed_count: int,
                           outstanding: int) -> None:
        self._journal("interrupted", outstanding=outstanding,
                      completed=executed_count)
        raise SweepInterruptedError(
            f"sweep cancelled: {executed_count} point(s) completed and "
            f"journaled this run, {outstanding} outstanding — resume "
            f"re-executes only the remainder")

    def _run_serial(self, points, pending, start, payloads,
                    progress, cached) -> "dict[str, object]":
        """In-process execution, in sweep order, failing fast — exactly
        the pre-engine driver behavior at ``retries=0`` with telemetry
        off (``recording(None)`` is a no-op scope)."""
        executed: "dict[str, object]" = {}
        done_positions = cached
        slowest: "tuple[str, float] | None" = None
        for digest, slots in pending.items():
            if self._cancel_requested:
                self._raise_interrupted(len(executed),
                                        len(pending) - len(executed))
            point = points[slots[0]]
            self._journal("submit", digest=digest,
                          label=point.label or point.kind)
            attempts = 0
            while True:
                try:
                    recorder = spans.SpanRecorder() if self.telemetry else None
                    tick = time.perf_counter()
                    ctick = time.process_time()
                    with spans.recording(recorder):
                        value = execute_point(point)
                    seconds = time.perf_counter() - tick
                    break
                except Exception as exc:
                    attempts += 1
                    if attempts > self.retries:
                        self._record_failed(point, digest, exc)
                        raise
                    self.registry.counter("runner.points.retried").inc()
            executed[digest] = value
            payloads[digest] = {
                "label": point.label or point.kind,
                "wall": seconds,
                "cpu": time.process_time() - ctick,
                "worker": None,
                "spans": spans.records_as_dicts(recorder),
            }
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
        """Process-pool execution with per-point retry, worker-loss
        recovery, and a progress timeout; the sweep always drains, then
        the earliest failure by point order (if any) is re-raised.

        Submission is windowed (at most ``jobs`` digests in flight), so
        when a worker death breaks the pool the suspect set is small.
        Suspects are re-executed one at a time on the rebuilt pool —
        a crash with exactly one point in flight attributes the death
        to that point precisely — and a point that exhausts its
        ``worker_death_budget`` is quarantined as a typed failure while
        everything else continues.

        Workers spool start/done/error records into a per-worker JSONL
        file (when telemetry or the progress line is on); the parent
        polls it between scheduler rounds to keep the progress line
        live while futures are still in flight.  Authoritative results
        and span payloads travel in-band through the futures, so spool
        polling can never change what the sweep returns.
        """
        registry = self.registry
        order = {digest: slots[0] for digest, slots in pending.items()}
        executed: "dict[str, object]" = {}
        failures: "dict[str, BaseException]" = {}
        failed_after: "dict[str, float]" = {}
        attempts: "dict[str, int]" = {digest: 0 for digest in pending}
        deaths: "dict[str, int]" = {digest: 0 for digest in pending}
        tries: "dict[str, int]" = {digest: 0 for digest in pending}
        workers = min(self.jobs, len(pending))
        use_spool = self.telemetry or progress.enabled
        spool_dir = (tempfile.mkdtemp(prefix="repro-sweep-spool-")
                     if use_spool else None)
        reader = TelemetryReader(spool_dir) if spool_dir else None
        # Wake at a bounded cadence: the point timeout is declared on
        # elapsed time since the last completion (plain-wait semantics
        # preserved exactly); sub-timeout wakeups only poll the spool
        # and the cancellation flag.
        bounds = [CANCEL_POLL_SECONDS]
        if self.timeout is not None:
            bounds.append(self.timeout)
        if progress.enabled:
            bounds.append(PROGRESS_POLL_SECONDS)
        wait_timeout = min(bounds)
        slowest: "tuple[str, float] | None" = None
        submitted: "dict[str, float]" = {}
        #: Digests awaiting first submission, in sweep order.
        queue = deque(sorted(pending, key=order.__getitem__))
        #: Digests in flight at a pool break; re-executed serially.
        suspects: "deque[str]" = deque()
        futures: "dict[object, str]" = {}
        pool = ProcessPoolExecutor(max_workers=workers,
                                   initializer=_init_worker)
        rebuilds = 0
        harvesting: "str | None" = None
        submitting: "str | None" = None

        def outstanding() -> int:
            return len(futures) + len(queue) + len(suspects)

        def submit(digest: str):
            point = points[order[digest]]
            if tries[digest] == 0:
                self._journal("submit", digest=digest,
                              label=point.label or point.kind)
            submitted[digest] = time.perf_counter()
            future = pool.submit(execute_point_task, point, spool_dir,
                                 self.telemetry, chaos=self.chaos,
                                 digest=digest, attempt=tries[digest])
            tries[digest] += 1
            return future

        def show_progress() -> None:
            if reader is not None:
                reader.poll()  # advance offsets; display only
            done_positions = cached + sum(
                len(pending[digest]) for digest in executed)
            progress.update(done_positions, cached, len(futures), slowest,
                            executed=len(executed),
                            remaining=len(pending) - len(executed))

        def handle_failure(digest: str, exc: BaseException,
                           now: float) -> None:
            attempts[digest] += 1
            if attempts[digest] <= self.retries:
                registry.counter("runner.points.retried").inc()
                futures[submit(digest)] = digest
                return
            self._record_failed(points[order[digest]], digest, exc)
            failures[digest] = exc
            failed_after[digest] = now - submitted.get(digest, now)

        def harvest(future, digest: str, now: float) -> None:
            """Consume one completed future.  Raises BrokenProcessPool
            upward — worker loss is recovery, not point failure."""
            nonlocal slowest
            point = points[order[digest]]
            try:
                value, payload = future.result()
            except BrokenProcessPool:
                raise
            except Exception as exc:
                handle_failure(digest, exc, now)
                return
            executed[digest] = value
            payloads[digest] = payload
            seconds = float(payload["wall"])
            if slowest is None or seconds > slowest[1]:
                slowest = (point.label or point.kind, seconds)
            self._record_done(point, digest, value, seconds, start)

        def quarantine(digest: str, now: float) -> None:
            point = points[order[digest]]
            registry.counter("runner.points.quarantined").inc()
            registry.counter("runner.points.failed").inc()
            exc = PointQuarantinedError(
                f"{point.label or point.kind} (kind={point.kind}) killed "
                f"{deaths[digest]} worker process(es); quarantined after "
                f"exhausting worker_death_budget={self.worker_death_budget}")
            failures[digest] = exc
            failed_after[digest] = now - submitted.get(digest, now)
            self._journal("quarantined", digest=digest,
                          label=point.label or point.kind,
                          deaths=deaths[digest])

        def on_broken_pool() -> None:
            """Rebuild after a worker death and line up the in-flight
            digests for serial re-execution with precise blame."""
            nonlocal pool, rebuilds, harvesting, submitting
            rebuilds += 1
            registry.counter("runner.pool.rebuilds").inc()
            crashed: "list[str]" = []
            if harvesting is not None:
                crashed.append(harvesting)
            if submitting is not None and submitting not in futures.values():
                # The submit call itself hit the broken pool; the
                # digest never entered flight, so it is no suspect.
                queue.appendleft(submitting)
            # Salvage futures that finished *before* the break — their
            # results are intact and must not be re-executed.
            for future, digest in list(futures.items()):
                future.cancel()
                if future.done() and not future.cancelled():
                    try:
                        harvest(future, digest, time.perf_counter())
                        continue
                    except BrokenProcessPool:
                        pass
                crashed.append(digest)
            futures.clear()
            harvesting = submitting = None
            if len(crashed) == 1:
                # Exactly one point was in flight: the death is its.
                deaths[crashed[0]] += 1
            for digest in sorted(set(crashed), key=order.__getitem__):
                if digest not in suspects:
                    suspects.append(digest)
            self._abort_pool(pool)
            self._crash_pause(rebuilds)
            pool = ProcessPoolExecutor(max_workers=workers,
                                       initializer=_init_worker)

        last_completion = time.perf_counter()
        try:
            show_progress()
            while outstanding():
                if self._cancel_requested:
                    for future in futures:
                        future.cancel()
                    self._raise_interrupted(len(executed), outstanding())
                try:
                    # Submission phase: suspects run strictly one at a
                    # time (so a repeat crash is attributable); the
                    # normal queue keeps a bounded window in flight.
                    if suspects:
                        if not futures:
                            digest = suspects.popleft()
                            if deaths[digest] >= self.worker_death_budget:
                                quarantine(digest, time.perf_counter())
                                continue
                            submitting = digest
                            futures[submit(digest)] = digest
                            submitting = None
                    else:
                        while queue and len(futures) < workers:
                            digest = queue[0]
                            submitting = digest
                            futures[submit(digest)] = digest
                            submitting = None
                            queue.popleft()
                    if not futures:
                        continue
                    done, _ = wait(futures, timeout=wait_timeout,
                                   return_when=FIRST_COMPLETED)
                    now = time.perf_counter()
                    if not done:
                        if (self.timeout is not None
                                and now - last_completion >= self.timeout):
                            for future in futures:
                                future.cancel()
                            raise PointTimeoutError(
                                f"no sweep point completed within "
                                f"{self.timeout}s ({outstanding()} "
                                f"outstanding; first by sweep order: "
                                f"{self._describe(points, pending, futures, submitted)})"
                            )
                        show_progress()
                        continue
                    last_completion = now
                    for future in done:
                        digest = futures.pop(future)
                        harvesting = digest
                        harvest(future, digest, now)
                        harvesting = None
                    show_progress()
                except BrokenProcessPool:
                    on_broken_pool()
                    # The rebuild (and its backoff pause) is progress;
                    # don't let it eat into the point timeout.
                    last_completion = time.perf_counter()
        finally:
            self._abort_pool(pool)
            if reader is not None:
                reader.close()
            if spool_dir is not None:
                shutil.rmtree(spool_dir, ignore_errors=True)
        if failures:
            digest = min(failures, key=order.__getitem__)
            point = points[order[digest]]
            raise RunnerError(
                f"{len(failures)} sweep point(s) failed; first by sweep "
                f"order: {point.label or point.kind} (kind={point.kind}, "
                f"failed after {failed_after[digest]:.1f}s, "
                f"{attempts[digest]} attempt(s))"
            ) from failures[digest]
        return executed

    def _crash_pause(self, rebuilds: int) -> None:
        """Deterministic seeded exponential backoff between pool
        rebuilds: base * 2^(n-1), jittered by the seeded RNG, capped.
        Gives transient resource pressure (the usual OOM-kill cause)
        room to clear before work is resubmitted."""
        if self.crash_backoff <= 0:
            return
        delay = min(MAX_CRASH_BACKOFF_SECONDS,
                    self.crash_backoff * (2 ** (rebuilds - 1)))
        time.sleep(delay * (0.5 + self._crash_rng.random()))

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
    def _describe(points, pending, futures, submitted) -> str:
        """Outstanding points at timeout, earliest sweep position
        first: ``label (kind, 12.3s since submit)``, up to three."""
        now = time.perf_counter()
        outstanding = sorted(futures.values(),
                             key=lambda digest: pending[digest][0])
        parts = []
        for digest in outstanding[:3]:
            point = points[pending[digest][0]]
            elapsed = now - submitted.get(digest, now)
            parts.append(f"{point.label or point.kind} "
                         f"({point.kind}, {elapsed:.1f}s since submit)")
        if len(outstanding) > 3:
            parts.append("...")
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
