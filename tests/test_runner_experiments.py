"""Experiment drivers on the sweep runner: parity, CLI, memoization."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.experiments.__main__ import main
from repro.experiments.config import datascalar_config, timing_node_config
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure7 import benchmark_points, run_figure7
from repro.experiments.table1 import run_table1
from repro.isa import Interpreter
from repro.params import FaultConfig
from repro.runner import (ResultCache, RunManifest, SweepPoint, SweepRunner,
                          execute_point, executors, result_fingerprint)

LIMIT = 1500


def _figure7_rows(runner):
    return run_figure7(benchmarks=["compress"], limit=LIMIT, runner=runner)


def test_figure7_parity_serial_parallel_cached(tmp_path):
    serial = _figure7_rows(SweepRunner(jobs=1))
    parallel = _figure7_rows(SweepRunner(jobs=2))
    cache = ResultCache(tmp_path, code_version="v")
    _figure7_rows(SweepRunner(jobs=1, cache=cache))  # populate
    warm_runner = SweepRunner(jobs=1, cache=cache)
    cached = _figure7_rows(warm_runner)
    assert warm_runner.registry.counter("runner.points.executed").value == 0
    for a, b, c in zip(serial, parallel, cached):
        assert result_fingerprint(a) == result_fingerprint(b)
        assert result_fingerprint(a) == result_fingerprint(c)


def test_table1_parity_parallel(tmp_path):
    names = ["compress", "go"]
    serial = run_table1(benchmarks=names, limit=LIMIT,
                        runner=SweepRunner(jobs=1))
    parallel = run_table1(benchmarks=names, limit=LIMIT,
                          runner=SweepRunner(jobs=2))
    assert [result_fingerprint(r) for r in serial] == \
        [result_fingerprint(r) for r in parallel]


def test_resilience_seeds_address_distinct_entries(tmp_path):
    """A fault seed rides inside the point's config, so two
    ``datascalar`` points that differ only in seed are two cache
    entries (and two results), while the same point again is a hit."""
    base = datascalar_config(4)

    def point(seed):
        faults = FaultConfig(seed=seed, receiver_drop_prob=1e-2)
        return SweepPoint.make(
            "datascalar", "compress", limit=LIMIT,
            config=dataclasses.replace(base, faults=faults))

    cache = ResultCache(tmp_path, code_version="v")
    runner = SweepRunner(jobs=1, cache=cache)
    (first,) = runner.run([point(11)])
    second, again = runner.run([point(12), point(11)])
    assert runner.registry.counter("runner.cache.hit").value == 1
    assert runner.registry.counter("runner.points.executed").value == 2
    assert result_fingerprint(again) == result_fingerprint(first)
    assert result_fingerprint(second) != result_fingerprint(first)


def test_cli_warm_rerun_hits_everything(tmp_path, capsys):
    cache_dir = str(tmp_path / "cli-cache")
    args = ["table3", "--limit", str(LIMIT), "--jobs", "1",
            "--cache-dir", cache_dir]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert "cache_hit_rate=0%" in cold
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert "cache_hit_rate=100%" in warm
    assert "executed=0" in warm
    # The rendered table is identical either way.
    assert cold.split("[runner]")[0] == warm.split("[runner]")[0]


def test_cli_no_cache_disables_caching(tmp_path, capsys):
    args = ["figure1", "--no-cache"]
    assert main(args) == 0
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "cache_hits=0 cache_misses=0" in out


def test_cli_jobs_flag_parallel(tmp_path, capsys):
    assert main(["figure3", "--limit", str(LIMIT), "--jobs", "2",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "jobs=2" in out and "Figure 3" in out


def test_cli_all_continues_past_failures(monkeypatch, capsys):
    import repro.experiments.__main__ as cli

    def boom(limit):
        raise RuntimeError("injected failure")

    monkeypatch.setitem(cli.EXPERIMENTS, "figure3",
                        (boom, lambda result: "", False))
    exit_code = main(["all", "--limit", str(LIMIT), "--no-cache"])
    captured = capsys.readouterr()
    assert exit_code == 1
    # Experiments after the broken one still ran and printed.
    assert "Figure 7" in captured.out and "Table 1" in captured.out
    assert "[failed] figure3: injected failure" in captured.err
    assert "1 of " in captured.err


def test_cli_single_experiment_failure_still_raises(monkeypatch):
    import repro.experiments.__main__ as cli

    def boom(limit):
        raise RuntimeError("injected failure")

    monkeypatch.setitem(cli.EXPERIMENTS, "figure3",
                        (boom, lambda result: "", False))
    with pytest.raises(RuntimeError, match="injected failure"):
        main(["figure3", "--limit", str(LIMIT), "--no-cache"])


def test_program_builds_are_memoized():
    from repro.workloads import build_program, get_workload
    from repro.workloads.common import _PROGRAM_CACHE, clear_program_cache

    clear_program_cache()
    try:
        first = build_program("go", 1)
        assert build_program("go", 1) is first
        assert get_workload("go").build(1) is first
        assert ("go", 1) in _PROGRAM_CACHE
        assert build_program("go", 2) is not first
    finally:
        clear_program_cache()


def test_memoized_programs_simulate_identically():
    from repro.workloads.common import clear_program_cache

    clear_program_cache()
    cold = _figure7_rows(SweepRunner(jobs=1))
    warm = _figure7_rows(SweepRunner(jobs=1))  # memoized program path
    assert [result_fingerprint(r) for r in cold] == \
        [result_fingerprint(r) for r in warm]


# ----------------------------------------------------------------------
# Shared record streams: the timing points of one (workload, scale,
# limit, knobs) key read one materialized stream, and reuse never
# changes a result.
# ----------------------------------------------------------------------
@pytest.fixture
def nothing_held():
    executors.release_records()
    yield
    executors.release_records()


@pytest.fixture
def trace_calls(monkeypatch):
    """Counts ``Interpreter.trace`` calls: one per stream built."""
    calls = []
    trace = Interpreter.trace

    def counting(self, *args, **kwargs):
        calls.append(self.program.name)
        return trace(self, *args, **kwargs)

    monkeypatch.setattr(Interpreter, "trace", counting)
    return calls


def _unshared(point):
    """``point`` run by :func:`execute_point` with nothing held."""
    executors.release_records()
    try:
        return execute_point(point)
    finally:
        executors.release_records()


def _assert_unshared_equal(points, results):
    for point, result in zip(points, results):
        assert result_fingerprint(result) == \
            result_fingerprint(_unshared(point)), point.label


def test_figure7_batch_builds_one_stream(nothing_held, trace_calls):
    points = benchmark_points("compress", limit=LIMIT)
    assert [p.kind for p in points] == ["perfect", "datascalar",
                                        "traditional", "datascalar",
                                        "traditional"]
    results = SweepRunner(jobs=1).run(points)
    assert trace_calls == ["compress"]
    assert executors._held is None  # emptied at the end of the batch
    _assert_unshared_equal(points, results)


def test_perfect_point_reads_a_stream_with_outcomes(nothing_held,
                                                    trace_calls):
    """A perfect point after a DataScalar point reads the DataScalar
    point's outcome-bearing records at single-cycle fetch."""
    perfect, ds2 = benchmark_points("go", limit=LIMIT)[:2]
    results = SweepRunner(jobs=1).run([ds2, perfect])
    assert len(trace_calls) == 1
    _assert_unshared_equal([ds2, perfect], results)


def test_another_cache_pair_builds_a_new_stream(nothing_held, trace_calls):
    """Outcomes are written onto a list once: a DataScalar point with
    another D-cache size on the same kernel builds its own list, and a
    traditional point with the first size after it builds again."""
    _, small, small_trad = benchmark_points(
        "compress", limit=LIMIT,
        node=timing_node_config(dcache_bytes=2 * 1024))[:3]
    default = benchmark_points("compress", limit=LIMIT)[1]
    points = [small, default, small_trad]
    results = SweepRunner(jobs=1).run(points)
    assert len(trace_calls) == 3
    assert result_fingerprint(results[0]) != result_fingerprint(results[1])
    _assert_unshared_equal(points, results)


def test_stream_build_has_its_own_phase(nothing_held):
    points = benchmark_points("compress", limit=LIMIT)
    runner = SweepRunner(jobs=1, telemetry=True)
    runner.run(points)
    rows = RunManifest.from_runner(runner).points
    assert len(rows) == 5
    assert [row["label"] for row in rows if "stream" in row["phases"]] == \
        ["compress/perfect"]
    for row in rows:
        assert "timing-loop" in row["phases"]
        assert sum(row["phases"].values()) == \
            pytest.approx(row["wall_seconds"], rel=1e-6)


def _figure3_batch(runner, monkeypatch):
    """Run Figure 3 on ``runner``; returns its result and the one batch
    of points and results it ran."""
    batches = []
    run = runner.run

    def recording_run(points):
        results = run(points)
        batches.append((points, results))
        return results

    monkeypatch.setattr(runner, "run", recording_run)
    result = run_figure3(limit=LIMIT, runner=runner)
    (batch,) = batches
    return result, batch


def test_figure3_batch_builds_one_stream(nothing_held, trace_calls,
                                         monkeypatch):
    result, (points, results) = _figure3_batch(SweepRunner(jobs=1),
                                               monkeypatch)
    assert [p.kind for p in points] == ["figure3", "figure3"]
    assert trace_calls == ["figure3"]
    assert [r.cycles for r in results] == [result.datascalar_cycles,
                                           result.traditional_cycles]
    _assert_unshared_equal(points, results)


def test_figure3_stream_build_has_its_own_phase(nothing_held, monkeypatch):
    runner = SweepRunner(jobs=1, telemetry=True)
    _, (points, _) = _figure3_batch(runner, monkeypatch)
    rows = RunManifest.from_runner(runner).points
    assert [row["label"] for row in rows] == [p.label for p in points]
    assert [row["label"] for row in rows if "stream" in row["phases"]] == \
        [points[0].label]
    for row in rows:
        assert "timing-loop" in row["phases"]
        assert sum(row["phases"].values()) == \
            pytest.approx(row["wall_seconds"], rel=1e-6)


def test_figure3_hops_select_the_stream(nothing_held, trace_calls):
    """The key's knobs pick the chase program: two ``hops`` values in
    one batch build two streams."""
    config = datascalar_config(4, node=timing_node_config(dcache_bytes=1024))
    points = [SweepPoint.make("figure3", limit=LIMIT, hops=hops,
                              config=config, label=f"figure3/hops{hops}")
              for hops in (64, 32)]
    results = SweepRunner(jobs=1).run(points)
    assert trace_calls == ["figure3", "figure3"]
    assert results[0].instructions != results[1].instructions
    _assert_unshared_equal(points, results)


def test_nothing_held_after_a_batch_raises(nothing_held):
    perfect, ds2 = benchmark_points("compress", limit=LIMIT)[:2]
    wedged = dataclasses.replace(
        ds2, config=dataclasses.replace(ds2.config, max_cycles=10))
    with pytest.raises(SimulationError, match="exceeded 10 cycles"):
        SweepRunner(jobs=1).run([perfect, wedged])
    assert executors._held is None


def test_nothing_held_after_a_build_raises(nothing_held, monkeypatch):
    perfect = benchmark_points("go", limit=LIMIT)[0]
    execute_point(perfect)
    assert executors._held is not None
    trace = Interpreter.trace

    def broken(self, *args, **kwargs):
        for count, record in enumerate(trace(self, *args, **kwargs)):
            if count == 100:
                raise SimulationError("injected mid-stream")
            yield record

    monkeypatch.setattr(Interpreter, "trace", broken)
    with pytest.raises(SimulationError, match="injected"):
        execute_point(benchmark_points("compress", limit=LIMIT)[0])
    assert executors._held is None
