"""The sweep engine: ordering, bit-identity, dedup, failures, metrics,
and "a typed error, never a hang" on worker death, stalls and
interruption."""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import PointTimeoutError, ReproError, RunnerError
from repro.experiments.config import datascalar_config, timing_node_config, \
    traditional_config
from repro.runner import (ResultCache, SweepPoint, SweepRunner,
                          execute_point, get_default_runner,
                          result_fingerprint, using_runner)
from repro.runner.executors import executor

LIMIT = 1500


# Registered at import time so fork-based pool workers inherit them.
@executor("engine-probe")
def _run_probe(point):
    return {"tripled": point.knob("x", 0) * 3}


@executor("engine-exit")
def _run_exit(point):
    os._exit(86)


@executor("engine-hang")
def _run_hang(point):
    time.sleep(30.0)
    return "never"


@executor("engine-held")
def _run_held(point):
    """Blocks until the ``release`` file exists (at most 30 s)."""
    release = pathlib.Path(point.knob("release"))
    deadline = time.monotonic() + 30.0
    while not release.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    return {"tripled": point.knob("x", 0) * 3}


def _probes(n):
    return [SweepPoint.make("engine-probe", label=f"alive-{i}", x=i)
            for i in range(n)]


def _workers_reaped(before, wait=10.0):
    """True once no child process started after ``before`` (a set of
    ``multiprocessing.active_children()``) is still alive."""
    deadline = time.monotonic() + wait
    while set(multiprocessing.active_children()) - before:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _mixed_points():
    node = timing_node_config()
    return [
        SweepPoint.make("perfect", "compress", limit=LIMIT,
                        config=node.cpu),
        SweepPoint.make("datascalar", "compress", limit=LIMIT,
                        config=datascalar_config(2, node=node)),
        SweepPoint.make("traditional", "compress", limit=LIMIT,
                        config=traditional_config(2, node=node)),
        SweepPoint.make("datascalar", "go", limit=LIMIT,
                        config=datascalar_config(2, node=node)),
    ]


def test_unknown_kind_is_a_typed_error():
    with pytest.raises(ReproError, match="unknown sweep-point kind"):
        execute_point(SweepPoint.make("nope"))


def test_invalid_jobs_rejected():
    for jobs in (-2, -1, 0):
        with pytest.raises(RunnerError, match="jobs must be >= 1"):
            SweepRunner(jobs=jobs)


def test_invalid_timeout_rejected():
    for timeout in (0, -1.0, float("nan")):
        with pytest.raises(RunnerError, match="timeout must be > 0"):
            SweepRunner(timeout=timeout)


def test_results_come_back_in_point_order():
    points = _mixed_points()
    results = SweepRunner(jobs=1).run(points)
    assert len(results) == len(points)
    # Each result matches a direct, runner-free execution of its point.
    for point, result in zip(points, results):
        assert result_fingerprint(result) == \
            result_fingerprint(execute_point(point))


def test_parallel_matches_serial_bit_for_bit():
    points = _mixed_points()
    serial = SweepRunner(jobs=1).run(points)
    parallel = SweepRunner(jobs=2).run(points)
    for a, b in zip(serial, parallel):
        assert result_fingerprint(a) == result_fingerprint(b)


def test_cached_matches_executed_bit_for_bit(tmp_path):
    points = _mixed_points()
    cache = ResultCache(tmp_path, code_version="v")
    cold = SweepRunner(jobs=1, cache=cache).run(points)
    warm_runner = SweepRunner(jobs=1, cache=cache)
    warm = warm_runner.run(points)
    assert warm_runner.registry.counter("runner.points.executed").value == 0
    for a, b in zip(cold, warm):
        assert result_fingerprint(a) == result_fingerprint(b)


def test_identical_points_execute_once():
    point = _mixed_points()[1]
    runner = SweepRunner(jobs=1)
    results = runner.run([point, point, point])
    assert results[0] is results[1] is results[2]
    registry = runner.registry
    assert registry.counter("runner.points.executed").value == 1
    assert registry.counter("runner.points.deduped").value == 2


def test_serial_failure_propagates_unchanged():
    runner = SweepRunner(jobs=1)
    with pytest.raises(ReproError, match="unknown sweep-point kind"):
        runner.run([SweepPoint.make("bogus")])
    assert runner.registry.counter("runner.points.failed").value == 1


def test_parallel_failure_is_deterministic_and_chained():
    points = [
        _mixed_points()[0],
        SweepPoint.make("bogus-a", label="first-bad"),
        SweepPoint.make("bogus-b", label="second-bad"),
    ]
    runner = SweepRunner(jobs=2)
    with pytest.raises(RunnerError, match="first-bad") as excinfo:
        runner.run(points)
    assert isinstance(excinfo.value.__cause__, ReproError)


def test_metrics_surface_through_registry(tmp_path):
    points = _mixed_points()
    cache = ResultCache(tmp_path, code_version="v")
    runner = SweepRunner(jobs=1, cache=cache)
    runner.run(points)
    runner.run(points)
    metrics = runner.registry.as_dict()
    assert metrics["runner.points.total"] == 2 * len(points)
    assert metrics["runner.points.executed"] == len(points)
    assert metrics["runner.cache.hit"] == len(points)
    assert metrics["runner.cache.miss"] == len(points)
    assert metrics["runner.point_seconds"]["count"] == len(points)
    assert len(metrics["runner.completed_at"]) == len(points)
    assert metrics["runner.wall_seconds"] > 0


def test_summary_line_is_greppable(tmp_path):
    cache = ResultCache(tmp_path, code_version="v")
    runner = SweepRunner(jobs=1, cache=cache)
    runner.run([_mixed_points()[0]])
    warm = SweepRunner(jobs=1, cache=cache)
    warm.run([_mixed_points()[0]])
    line = warm.summary()
    assert line.startswith("[runner] jobs=1 ")
    assert "cache_hit_rate=100%" in line


def test_default_runner_roundtrip():
    assert get_default_runner().jobs == 1
    custom = SweepRunner(jobs=1)
    with using_runner(custom) as active:
        assert active is custom
        assert get_default_runner() is custom
    assert get_default_runner() is not custom


def test_timeout_error_type_exists():
    assert issubclass(PointTimeoutError, RunnerError)
    assert issubclass(RunnerError, ReproError)


# ----------------------------------------------------------------------
# A typed error, never a hang.
# ----------------------------------------------------------------------
def test_worker_death_leaves_no_worker_process():
    """A worker that dies mid-point raises exactly one RunnerError that
    names the point, and the pool's other workers are torn down."""
    before = set(multiprocessing.active_children())
    points = _probes(3)
    points.insert(1, SweepPoint.make("engine-exit", label="killer"))
    runner = SweepRunner(jobs=2, telemetry=True)
    with pytest.raises(RunnerError, match="worker process died.*killer") \
            as info:
        runner.run(points)
    assert type(info.value) is RunnerError
    assert isinstance(info.value.__cause__, BrokenProcessPool)
    assert _workers_reaped(before)


def test_timeout_abort_leaves_no_worker_process():
    before = set(multiprocessing.active_children())
    runner = SweepRunner(jobs=2, timeout=0.3, telemetry=True)
    with pytest.raises(PointTimeoutError, match="hung"):
        runner.run([SweepPoint.make("engine-hang", label="hung")])
    assert _workers_reaped(before)


@pytest.mark.parametrize("jobs", [1, 2])
def test_rerun_after_interrupt_executes_only_what_the_cache_lacks(
        tmp_path, jobs):
    """Ctrl-C partway through a sweep, then a plain rerun on the same
    cache: only the uncached points execute, bit-identically."""
    release = tmp_path / "release"
    points = _probes(2) + [
        SweepPoint.make("engine-held", label=f"held-{i}", x=i,
                        release=str(release))
        for i in range(2, 6)]
    cache = ResultCache(tmp_path / "cache", code_version="v")
    main_thread = threading.get_ident()

    def interrupt_once_two_are_cached():
        # The held points cannot finish before ``release`` exists, so
        # exactly the two probes are in the cache when SIGINT lands.
        deadline = time.monotonic() + 30.0
        while (len(list(cache.root.rglob("*.pkl"))) < 2
               and time.monotonic() < deadline):
            time.sleep(0.01)
        signal.pthread_kill(main_thread, signal.SIGINT)

    before = set(multiprocessing.active_children())
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    watcher = threading.Thread(target=interrupt_once_two_are_cached)
    try:
        watcher.start()
        with pytest.raises(KeyboardInterrupt):
            SweepRunner(jobs=jobs, cache=cache, telemetry=True).run(points)
    finally:
        watcher.join(timeout=60.0)
        signal.signal(signal.SIGINT, previous)
    assert not watcher.is_alive()
    assert _workers_reaped(before)

    release.touch()
    rerun = SweepRunner(jobs=jobs, cache=cache)
    results = rerun.run(points)
    assert rerun.registry.counter("runner.cache.hit").value == 2
    assert rerun.registry.counter("runner.points.executed").value == 4
    for a, b in zip(results, SweepRunner(jobs=1).run(points)):
        assert result_fingerprint(a) == result_fingerprint(b)
