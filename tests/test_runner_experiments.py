"""Experiment drivers on the sweep runner: parity, CLI, memoization."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.__main__ import main
from repro.experiments.config import datascalar_config
from repro.experiments.figure7 import run_figure7
from repro.experiments.table1 import run_table1
from repro.params import FaultConfig
from repro.runner import (ResultCache, SweepPoint, SweepRunner,
                          result_fingerprint)

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
