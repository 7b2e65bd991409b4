"""Tests for the ``python -m repro.experiments`` command-line runner."""

import pytest

from repro.experiments.__main__ import EXPERIMENTS, build_parser, main, \
    run_one


def test_every_experiment_registered():
    assert set(EXPERIMENTS) == {
        "figure1", "figure3", "figure7", "figure8",
        "table1", "table2", "table3", "scaling", "resilience",
        "traced-run",
    }


def test_parser_accepts_all_and_list():
    parser = build_parser()
    assert parser.parse_args(["all"]).experiment == "all"
    assert parser.parse_args(["list"]).experiment == "list"
    args = parser.parse_args(["table1", "--limit", "500"])
    assert args.limit == 500


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure99"])


def test_parser_accepts_fault_flags():
    args = build_parser().parse_args(
        ["resilience", "--fault-seed", "3", "--drop-prob", "1e-3"])
    assert args.fault_seed == 3
    assert args.drop_prob == pytest.approx(1e-3)


def test_run_one_resilience_single_point(tmp_path):
    csv_path = tmp_path / "res.csv"
    text = run_one("resilience", limit=800, csv_path=str(csv_path),
                   fault_seed=5, drop_prob=1e-3)
    assert "Resilience" in text
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("workload,")
    assert len(lines) == 3  # header + fault-free anchor + one faulty point


def test_run_one_figure1():
    text = run_one("figure1", limit=None)
    assert "Figure 1" in text


def test_run_one_table1_with_csv(tmp_path):
    csv_path = tmp_path / "t1.csv"
    text = run_one("table1", limit=5000, csv_path=str(csv_path))
    assert "Table 1" in text
    assert csv_path.read_text().startswith("benchmark")


def test_csv_rejected_for_non_row_experiments(tmp_path):
    with pytest.raises(SystemExit):
        run_one("figure1", limit=None, csv_path=str(tmp_path / "x.csv"))


@pytest.mark.parametrize("name", ["all", "plot"])
def test_csv_is_a_usage_error_before_anything_runs(name, tmp_path,
                                                   monkeypatch, capsys):
    """``--csv`` takes the rows of one row-producing experiment, so
    ``all`` and an experiment without rows are refused with exit 2
    before a runner is built or an experiment runs."""
    import repro.experiments.__main__ as cli
    from repro.runner import SweepRunner

    called = []

    def fake(tag):
        def run(limit):
            called.append(tag)
            return []
        return run

    def build_runner(args):
        called.append("runner")
        return SweepRunner(jobs=1)

    monkeypatch.setattr(cli, "EXPERIMENTS", {
        "rows": (fake("rows"), str, True),
        "plot": (fake("plot"), str, False),
    })
    monkeypatch.setattr(cli, "_build_runner", build_runner)
    csv_path = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as info:
        cli.main([name, "--csv", str(csv_path)])
    assert info.value.code == 2
    assert "--csv" in capsys.readouterr().err
    assert called == []
    assert not csv_path.exists()


def test_run_one_traced_run_roundtrip(tmp_path):
    import json

    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.txt"
    text = run_one("traced-run", limit=800, trace_out=str(trace_path),
                   metrics_out=str(metrics_path))
    assert "traced-run" in text
    assert "SPSD lockstep: OK" in text
    doc = json.loads(trace_path.read_text())
    assert doc["traceEvents"]
    metrics = metrics_path.read_text()
    assert "run.cycles" in metrics
    assert "trace.events.commit" in metrics


def test_main_traced_run_flags(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    assert main(["traced-run", "--limit", "800",
                 "--trace-out", str(trace_path)]) == 0
    assert "SPSD lockstep: OK" in capsys.readouterr().out
    from repro.obs import from_jsonl

    events = from_jsonl(trace_path.read_text())
    assert events and {event.node for event in events} == {0, 1, 2, 3}


def test_main_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "figure7" in out


def test_main_single_experiment(capsys):
    assert main(["figure1"]) == 0
    assert "Figure 1" in capsys.readouterr().out


def test_main_all_no_cache_leaves_the_cache_empty(capsys):
    """``--no-cache`` holds for every experiment of ``all``: nothing is
    stored under the default cache directory."""
    import os
    import pathlib

    assert main(["all", "--no-cache", "--limit", "500", "--jobs", "1"]) == 0
    capsys.readouterr()
    cache_dir = pathlib.Path(os.environ["REPRO_CACHE_DIR"])
    assert not list(cache_dir.rglob("*.pkl"))


def test_main_profile_writes_pstats(tmp_path, capsys):
    import pstats

    path = tmp_path / "figure1.pstats"
    assert main(["figure1", "--profile", str(path)]) == 0
    assert "Figure 1" in capsys.readouterr().out
    assert path.exists()
    stats = pstats.Stats(str(path))
    assert stats.total_calls > 0


def test_parser_accepts_robustness_flags():
    args = build_parser().parse_args(["figure7", "--point-timeout", "30"])
    assert args.point_timeout == pytest.approx(30.0)
    for value in ("0", "0.25", "1"):
        args = build_parser().parse_args(["resilience", "--drop-prob", value])
        assert args.drop_prob == float(value)


@pytest.mark.parametrize("flags", [["--jobs", "0"], ["--jobs", "-1"],
                                   ["--point-timeout", "0"],
                                   ["--point-timeout", "-1"],
                                   ["--limit", "0"], ["--limit", "-5"],
                                   ["--point-timeout", "nan"]])
def test_parser_rejects_out_of_range_runner_input(flags, capsys):
    with pytest.raises(SystemExit) as info:
        main(["figure1", *flags])
    assert info.value.code == 2
    assert "must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["2", "-0.5", "nan"])
def test_parser_rejects_out_of_range_drop_prob(value, capsys):
    with pytest.raises(SystemExit) as info:
        main(["figure1", "--drop-prob", value])
    assert info.value.code == 2
    assert "must be in [0, 1]" in capsys.readouterr().err


def test_sigterm_mid_sweep_exits_130_with_partial_manifest(tmp_path):
    """SIGTERM stops a parallel sweep like Ctrl-C: exit 130 and a
    partial ``status: interrupted`` manifest."""
    import json
    import os
    import pathlib
    import signal
    import subprocess
    import sys
    import time

    import repro

    cache = tmp_path / "cache"
    report = tmp_path / "run.json"
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
    sweep = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", "figure7",
         "--limit", "20000", "--jobs", "2", "--cache-dir", str(cache),
         "--report-out", str(report)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    try:
        deadline = time.monotonic() + 120.0
        while not list(cache.rglob("*.pkl")):
            assert sweep.poll() is None, "sweep ended before the signal"
            assert time.monotonic() < deadline, "no point completed"
            time.sleep(0.02)
        sweep.send_signal(signal.SIGTERM)
        _, err = sweep.communicate(timeout=60)
    finally:
        if sweep.poll() is None:
            sweep.kill()
    assert sweep.returncode == 130, err
    assert "[interrupted] figure7" in err
    manifest = json.loads(report.read_text())
    assert manifest["status"] == "interrupted"
    assert len(manifest["points"]) >= 1
