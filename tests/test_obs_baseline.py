"""The perf-regression gate: manifest vs manifest and vs BENCH files."""

from __future__ import annotations

import copy
import json

import pytest

from repro.obs.baseline import (DEFAULT_TOLERANCE, Check, compare, main,
                                manifest_rate)

MANIFEST = {
    "schema": "repro-run-manifest/1",
    "jobs": 2,
    "wall_seconds": 2.0,
    "points": [
        {"label": "a", "cached": False, "deduped": False,
         "wall_seconds": 0.4, "limit": 4000, "phases": {}},
        {"label": "b", "cached": False, "deduped": False,
         "wall_seconds": 0.8, "limit": 4000, "phases": {}},
        {"label": "a-alias", "cached": False, "deduped": True,
         "wall_seconds": 0.4, "limit": 4000, "phases": {}},
        {"label": "c", "cached": True, "deduped": False,
         "wall_seconds": 0.0, "limit": 4000, "phases": {}},
        {"label": "analytic", "cached": False, "deduped": False,
         "wall_seconds": 0.1, "limit": None, "phases": {}},
    ],
    "metrics": {},
}


def _write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def test_manifest_rate_uses_executed_points_with_limits():
    # Median of 0.4/4000 and 0.8/4000; aliases, cache hits, and
    # limit-less analytic points are excluded.
    assert manifest_rate(MANIFEST) == pytest.approx(0.6 / 4000)


def test_check_ratio_and_verdict():
    ok = Check("x", baseline=1.0, measured=1.5, tolerance=2.0)
    assert ok.ok and ok.ratio == pytest.approx(1.5)
    bad = Check("x", baseline=1.0, measured=2.5, tolerance=2.0)
    assert not bad.ok
    degenerate = Check("x", baseline=0.0, measured=1.0, tolerance=2.0)
    assert degenerate.ratio == float("inf")
    assert "FAIL" in bad.describe() and "OK" in ok.describe()


def test_compare_manifest_to_itself_passes():
    checks = compare(MANIFEST, MANIFEST, tolerance=DEFAULT_TOLERANCE)
    assert checks
    assert all(check.ok for check in checks)
    assert {check.name for check in checks} == {
        "seconds_per_instruction", "per_point_wall_ratio",
        "executed_wall_seconds"}


def test_compare_detects_synthetic_slowdown():
    slowed = copy.deepcopy(MANIFEST)
    for point in slowed["points"]:
        point["wall_seconds"] *= 10
    checks = compare(slowed, MANIFEST, tolerance=DEFAULT_TOLERANCE)
    assert checks and all(not check.ok for check in checks)


def test_compare_against_bench_sweep_shape():
    bench = {"serial_seconds": 12.0, "points": 30, "limit": 16000}
    checks = compare(MANIFEST, bench, tolerance=10.0)
    assert len(checks) == 1
    assert checks[0].name == "seconds_per_instruction"
    assert checks[0].baseline == pytest.approx(12.0 / 30 / 16000)


def test_compare_against_bench_simperf_shape():
    bench = {"optimized_seconds": 0.55, "limit": 16000}
    checks = compare(MANIFEST, bench, tolerance=10.0)
    assert len(checks) == 1
    assert checks[0].baseline == pytest.approx(0.55 / 16000)


def test_compare_requires_a_manifest():
    with pytest.raises(ValueError, match="expected a run manifest"):
        compare({"schema": "nope"}, MANIFEST)


def test_cli_passes_on_fresh_manifest(tmp_path, capsys):
    manifest = _write(tmp_path, "run.json", MANIFEST)
    rc = main([manifest, "--against", manifest])
    assert rc == 0
    out = capsys.readouterr().out
    assert "all" in out and "within tolerance" in out


def test_cli_fails_on_slowed_manifest(tmp_path, capsys):
    slowed = copy.deepcopy(MANIFEST)
    for point in slowed["points"]:
        point["wall_seconds"] *= 10
    rc = main([_write(tmp_path, "slow.json", slowed),
               "--against", _write(tmp_path, "base.json", MANIFEST)])
    assert rc == 1
    assert "REGRESSION" in capsys.readouterr().err


def test_cli_refuses_vacuous_pass(tmp_path, capsys):
    empty = {"schema": "repro-run-manifest/1", "points": []}
    rc = main([_write(tmp_path, "empty.json", empty),
               "--against", _write(tmp_path, "empty2.json", empty)])
    assert rc == 2
    assert "vacuous" in capsys.readouterr().err


def test_cli_requires_against_and_positive_tolerance(tmp_path, capsys):
    manifest = _write(tmp_path, "run.json", MANIFEST)
    assert main([manifest]) == 2
    assert main([manifest, "--against", manifest, "--tolerance", "0"]) == 2


def test_cli_bad_input_is_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    manifest = _write(tmp_path, "run.json", MANIFEST)
    assert main([manifest, "--against", missing]) == 2
    assert main([missing, "--against", manifest]) == 2


def test_bench_timing_phases_are_not_gated(tmp_path):
    """A BENCH record's ``timing_phases`` breakdown is informational:
    only the seconds-per-instruction rate is compared, and there is no
    separate share tolerance to pass."""
    bench = {"optimized_seconds": 0.55, "limit": 16000,
             "timing_phases": {"frontend": 0.4, "<self>": 1.6}}
    checks = compare(MANIFEST, bench, tolerance=10.0)
    assert [check.name for check in checks] == ["seconds_per_instruction"]
    manifest = _write(tmp_path, "run.json", MANIFEST)
    with pytest.raises(SystemExit) as exit_info:
        main([manifest, "--against", manifest, "--share-tolerance", "2"])
    assert exit_info.value.code == 2
