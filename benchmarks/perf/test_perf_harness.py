"""Tests of the benchmark harness itself, on tiny instruction limits.

Run from ``benchmarks/`` (``PYTHONPATH=../src python -m pytest -q``) or
from the repository root.
"""

import cProfile
import copy
import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import compare  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
from layers import LAYERS, layer_of  # noqa: E402
from speed import CpuProbes, SpeedProbe  # noqa: E402

#: Dynamic-instruction cap of every op in these tests.
TINY = 300


def _tiny_run(workload, tamper=None):
    """A :class:`run.Run` of ``workload`` at :data:`TINY`, checked
    against digests of its own outputs (with ``tamper``'s replaced),
    and the profile of its set-up."""
    profile = cProfile.Profile()
    op_list = profile.runcall(ops.setup, workload, limit=TINY)
    expected = {}
    for op in op_list:
        outcome = ops.execute(op, jobs=1)
        expected[f"{workload}/{op.name}"] = {
            "instructions": outcome.instructions,
            "digest": ops.digest(outcome.value)}
    if tamper is not None:
        expected[f"{workload}/{tamper}"]["digest"] = "0" * 64
    tiny = run.Run(ops, workload, ops.DEFAULT_SEED, op_list, expected)
    return tiny, profile


def test_every_source_file_maps_to_one_layer():
    package = run.SRC / "repro"
    used = set()
    for path in package.rglob("*.py"):
        layer = layer_of(path.relative_to(package).as_posix())
        assert layer in LAYERS and layer != "unattributed", path
        used.add(layer)
    assert used == set(LAYERS) - {"unattributed"}


def test_metric_names_match_benchmark_json():
    spec = run.load_spec()
    assert [entry["name"] for entry in spec["workloads"]] \
        == list(ops.WORKLOADS)
    tiny, profile = _tiny_run("compute")
    timed = tiny.timed(0)
    assert set(timed) | {"setup_s"} == {
        entry["name"] for entry in spec["end_to_end"]}
    traced = tiny.traced(profile)
    assert set(traced) == {entry["name"] for entry in spec["per_layer"]}
    assert sum(traced[f"{layer}.share"] for layer in LAYERS) \
        == pytest.approx(1.0)
    assert traced["cpu.ticks"] > 0 and traced["trace.overhead"] > 0
    assert tiny.failures == []


def test_sweep_trace_counts_points_and_shares_sum_to_one():
    tiny, profile = _tiny_run("sweep")
    traced = tiny.traced(profile)
    assert tiny.failures == []
    assert traced["runner.points_executed"] == 58
    assert 0 < traced["runner.parallel_efficiency"] <= 1
    assert sum(traced[f"{layer}.share"] for layer in LAYERS) \
        == pytest.approx(1.0)


def test_tampered_digest_counts_as_failed_op():
    tiny, _ = _tiny_run("faulty", tamper="wave5/bus")
    tiny.timed(0)
    assert tiny.attempted == len(tiny.op_list)
    assert len(tiny.failures) == 1
    assert "faulty/wave5/bus" in tiny.failures[0]


def test_committed_expected_covers_every_op():
    expected = ops.load_expected()
    keys = {f"{workload}/{op.name}" for workload in ops.WORKLOADS
            for op in ops.workload_ops(workload)}
    assert set(expected) == keys
    assert json.loads(ops.EXPECTED_PATH.read_text())["seed"] \
        == ops.DEFAULT_SEED


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_speed_probe_samples_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        _busy(0.2)
    assert signal.getsignal(signal.SIGALRM) is before
    assert probe.count >= 5 and 0 < probe.spent < 0.2
    assert probe.normalize(0.2) == pytest.approx(
        (0.2 - probe.spent) * probe.factor)


def test_cpu_probes_sample_every_cpu_from_stopped_helpers():
    with CpuProbes() as probe:
        time.sleep(0.5)
    assert all(helper.returncode is not None for helper in probe._helpers)
    assert probe.count >= len(probe._helpers) and probe.factor > 0
    assert probe.normalize(1.0) == pytest.approx(probe.factor)


def _entry(values, better="lower", bound=0.1):
    q1, median, q3 = run.quartiles(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "better": better, "bound": bound}


BASE = [10.0, 10.2, 9.9, 10.1, 10.0]


def test_compare_flags_twenty_percent_slowdown_as_regressed():
    assert compare.verdict(_entry(BASE), _entry([v * 1.2 for v in BASE])) \
        == "regressed"
    kips = [1000 / v for v in BASE]
    assert compare.verdict(_entry(kips, "higher"),
                           _entry([v / 1.2 for v in kips], "higher")) \
        == "regressed"


def test_compare_change_inside_iqr_is_not_a_verdict():
    assert compare.verdict(_entry(BASE), _entry([v + 0.05 for v in BASE])) \
        in ("unchanged", "unresolved")
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
    assert compare.verdict(_entry(noisy), _entry(BASE)) == "unresolved"


def test_compare_report_marks_regression_and_counts():
    record = {
        "stamp": {"git_sha": "0" * 40, "cpus": 2, "python": "3",
                  "runs": 5, "seed": 0, "seconds": 1},
        "workloads": {"compute": {
            "end_to_end": {"wall_s": _entry(BASE)},
            "per_layer": {"cpu.ticks": {"value": 100, "unit": "count"}}}},
    }
    slower = copy.deepcopy(record)
    slower["workloads"]["compute"]["end_to_end"]["wall_s"] = _entry(
        [v * 1.2 for v in BASE])
    lines, regressed = compare.compare(record, slower)
    assert regressed
    assert any("wall_s" in line and "regressed" in line for line in lines)
    assert any("cpu.ticks" in line and "identical" in line for line in lines)
    assert compare.compare(record, record)[1] is False
