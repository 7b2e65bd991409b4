"""Sweep telemetry: point records, manifests, progress, and the
error-message satellites."""

from __future__ import annotations

import io
import json
import time

import pytest

from repro.errors import PointTimeoutError, ReproError, RunnerError
from repro.experiments.config import datascalar_config, timing_node_config, \
    traditional_config
from repro.runner import (ProgressLine, ResultCache, RunManifest,
                          SweepPoint, SweepRunner, result_fingerprint,
                          worker_tracks)
from repro.runner.executors import executor

LIMIT = 1500


def _points():
    node = timing_node_config()
    return [
        SweepPoint.make("perfect", "compress", limit=LIMIT,
                        config=node.cpu),
        SweepPoint.make("datascalar", "compress", limit=LIMIT,
                        config=datascalar_config(2, node=node)),
        SweepPoint.make("traditional", "compress", limit=LIMIT,
                        config=traditional_config(2, node=node)),
        # Same digest as the first point: a dedup alias.
        SweepPoint.make("perfect", "compress", limit=LIMIT,
                        config=node.cpu, label="perfect-again"),
    ]


# Registered at import time so fork-based pool workers inherit them.
@executor("sleepy")
def _run_sleepy(point):
    time.sleep(point.knob("seconds", 5.0))
    return "slept"


@executor("telemetry-bogus")
def _run_bogus(point):
    raise ReproError("intentional telemetry-test failure")


# ----------------------------------------------------------------------
# Point telemetry.
# ----------------------------------------------------------------------
def test_point_telemetry_rows_in_sweep_order_jobs2():
    points = _points()
    runner = SweepRunner(jobs=2, telemetry=True)
    runner.run(points)
    rows = runner.point_telemetry
    assert [row.index for row in rows] == [0, 1, 2, 3]
    assert [row.label for row in rows] == \
        [point.label or point.kind for point in points]
    executed = [row for row in rows if not row.cached and not row.deduped]
    assert len(executed) == 3
    assert all(row.wall > 0 for row in executed)
    assert all(row.worker is not None for row in executed)
    assert all(row.spans for row in executed)
    alias = rows[3]
    assert alias.deduped and alias.digest == rows[0].digest
    assert alias.wall == rows[0].wall  # shares the one execution


def test_point_telemetry_serial_matches_parallel_shape():
    points = _points()
    runner = SweepRunner(jobs=1, telemetry=True)
    runner.run(points)
    rows = runner.point_telemetry
    assert [row.index for row in rows] == [0, 1, 2, 3]
    executed = [row for row in rows if not row.deduped]
    assert all(row.worker is None for row in executed)  # in-process
    assert all(row.spans for row in executed)
    assert worker_tracks(rows)[0][0] == "serial"


def test_cached_points_carry_zero_cost(tmp_path):
    points = _points()[:2]
    cache = ResultCache(str(tmp_path / "cache"))
    warm = SweepRunner(jobs=1, cache=cache, telemetry=True)
    warm.run(points)
    runner = SweepRunner(jobs=1, cache=cache, telemetry=True)
    runner.run(points)
    rows = runner.point_telemetry
    assert all(row.cached for row in rows)
    assert all(row.wall == 0.0 and not row.spans for row in rows)


def test_telemetry_accumulates_across_runs_with_global_indices():
    points = _points()[:2]
    runner = SweepRunner(jobs=1, telemetry=True)
    runner.run(points)
    runner.run(points)
    assert [row.index for row in runner.point_telemetry] == [0, 1, 2, 3]


def test_results_bit_identical_with_telemetry_on():
    points = _points()
    reference = SweepRunner(jobs=1).run(points)
    for runner in (SweepRunner(jobs=1, telemetry=True),
                   SweepRunner(jobs=2, telemetry=True)):
        got = runner.run(points)
        for a, b in zip(reference, got):
            assert result_fingerprint(a) == result_fingerprint(b)


def test_worker_tracks_merge_is_deterministic():
    points = _points()
    runner = SweepRunner(jobs=2, telemetry=True)
    runner.run(points)
    tracks = worker_tracks(runner.point_telemetry)
    # Same telemetry, reversed row order: identical merged output.
    again = worker_tracks(list(reversed(runner.point_telemetry)))
    assert tracks == again
    for _, records in tracks:
        starts = [record["start"] for record in records]
        assert starts == sorted(starts)


# ----------------------------------------------------------------------
# Manifests.
# ----------------------------------------------------------------------
def test_manifest_round_trip_and_phase_sums(tmp_path):
    points = _points()
    runner = SweepRunner(jobs=2, telemetry=True)
    runner.run(points)
    manifest = RunManifest.from_runner(runner)
    path = tmp_path / "manifest.json"
    manifest.write(str(path))
    loaded = RunManifest.load(str(path))
    assert loaded.to_dict() == manifest.to_dict()
    assert loaded.schema == "repro-run-manifest/1"
    assert loaded.jobs == 2
    assert loaded.environment["cpu_count"]
    assert loaded.code_version
    assert "runner.points.total" in loaded.metrics

    executed = loaded.executed_points()
    assert len(executed) == 3
    for row in executed:
        assert row["phases"]
        total = sum(row["phases"].values())
        assert total == pytest.approx(row["wall_seconds"], rel=0.05)
        assert "timing-loop" in row["phases"]


def test_manifest_rejects_other_documents(tmp_path):
    path = tmp_path / "not-manifest.json"
    path.write_text(json.dumps({"schema": "something-else"}))
    with pytest.raises(ReproError, match="not a run manifest"):
        RunManifest.load(str(path))


def test_report_out_cli_writes_manifest(tmp_path, capsys):
    from repro.experiments.__main__ import main

    report = tmp_path / "report.json"
    trace = tmp_path / "trace.json"
    rc = main(["figure1", "--report-out", str(report),
               "--sweep-trace-out", str(trace), "--no-progress"])
    assert rc == 0
    manifest = RunManifest.load(str(report))
    assert manifest.points
    assert json.loads(trace.read_text())["traceEvents"] is not None


# ----------------------------------------------------------------------
# Progress line.
# ----------------------------------------------------------------------
def test_progress_line_renders_counts_and_slowest():
    line = ProgressLine(30, stream=io.StringIO(), enabled=True)
    text = line.render(12, 5, 3, ("compress/ds2", 1.75))
    assert "12/30 done" in text
    assert "3 running" in text
    assert "cache 5/30" in text
    assert "slowest compress/ds2 1.8s" in text
    assert "eta" in text


def test_progress_line_disabled_writes_nothing():
    stream = io.StringIO()
    line = ProgressLine(10, stream=stream, enabled=False)
    line.update(5, 0, 2)
    line.finish()
    assert stream.getvalue() == ""


def test_progress_line_auto_detects_non_tty():
    line = ProgressLine(10, stream=io.StringIO(), enabled=None)
    assert line.enabled is False


def test_progress_line_emits_carriage_return_frames():
    stream = io.StringIO()
    line = ProgressLine(4, stream=stream, enabled=True)
    line.update(1, 0, 3)
    line.update(2, 0, 2)
    line.finish()
    output = stream.getvalue()
    assert output.count("\r") == 2
    assert output.endswith("\n")


def test_sweep_runs_clean_with_progress_forced_on():
    points = _points()[:2]
    reference = SweepRunner(jobs=1).run(points)
    runner = SweepRunner(jobs=2, progress=True, telemetry=True)
    got = runner.run(points)
    for a, b in zip(reference, got):
        assert result_fingerprint(a) == result_fingerprint(b)


def _point(tag):
    return SweepPoint.make("esp-schedule", None,
                           broadcast_latency=tag + 1)


def test_progress_eta_excludes_cached_points():
    line = ProgressLine(total=10, enabled=False)
    line._start -= 10.0  # pretend 10s have elapsed

    # Position arithmetic (the old fallback): 6 done of which 5 cached
    # looks like 1 executed / 4 remaining -> eta 40s.
    fallback = line.render(6, 5, 0)
    assert "eta 0:40" in fallback

    # True work-unit counts: 1 digest executed, 1 digest remaining
    # (the other 3 remaining positions are dedup copies) -> eta 10s.
    informed = line.render(6, 5, 0, executed=1, remaining=1)
    assert "eta 0:10" in informed

    # Everything so far came from the cache: no rate estimate at
    # all rather than an absurdly optimistic one.
    replayed = line.render(6, 6, 0, executed=0, remaining=4)
    assert "eta" not in replayed


def test_progress_eta_serial_sweep_uses_digest_counts(tmp_path, capsys):
    """End to end: a sweep with duplicate points passes unique-digest
    executed/remaining counts through update()."""
    seen = []

    class Spy(ProgressLine):
        def update(self, done, cached, running, slowest=None,
                   executed=None, remaining=None):
            seen.append((done, cached, executed, remaining))

    import repro.runner.engine as engine_mod
    original = engine_mod.ProgressLine
    engine_mod.ProgressLine = Spy
    try:
        runner = SweepRunner(jobs=1,
                             cache=ResultCache(tmp_path, code_version="t"))
        runner.run([_point(0), _point(0), _point(1)])
    finally:
        engine_mod.ProgressLine = original
    # Two unique digests executed; the dedup duplicate never counts as
    # an executed sample.
    assert seen[-1] == (3, 0, 2, 0)
    assert (2, 0, 1, 1) in seen


# ----------------------------------------------------------------------
# Error-message satellites: labels and elapsed seconds.
# ----------------------------------------------------------------------
def test_runner_error_includes_label_and_elapsed():
    points = [SweepPoint.make("telemetry-bogus", label="bad-apple")]
    runner = SweepRunner(jobs=2)
    with pytest.raises(RunnerError, match=r"bad-apple.*failed after "
                                          r"\d+\.\d+s") as info:
        runner.run(points)
    assert isinstance(info.value.__cause__, ReproError)


def test_timeout_error_includes_label_and_elapsed():
    points = [SweepPoint.make("sleepy", label="slow-poke", seconds=30.0)]
    runner = SweepRunner(jobs=2, timeout=0.3)
    with pytest.raises(PointTimeoutError,
                       match=r"slow-poke.*\d+\.\d+s since submit"):
        runner.run(points)


def test_timeout_with_progress_polling_preserves_semantics():
    # With the live progress line on, a hung point must still time out
    # (on elapsed time since the last completion), not spin forever.
    points = [SweepPoint.make("sleepy", label="slow-poke", seconds=30.0)]
    runner = SweepRunner(jobs=2, timeout=0.3, progress=True)
    tick = time.perf_counter()
    with pytest.raises(PointTimeoutError, match="slow-poke"):
        runner.run(points)
    assert time.perf_counter() - tick < 10.0
