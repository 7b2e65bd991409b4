"""Tests for technology scenarios, CSV/JSON export, and store-to-load
forwarding."""

import json

import pytest

from repro.analysis import rows_to_csv, rows_to_json, write_csv, write_json
from repro.baseline.perfect import PerfectMemory
from repro.cpu.pipeline import Pipeline
from repro.experiments import (
    SCENARIOS,
    cmp_scenario,
    iram_scenario,
    now_scenario,
    run_scenario,
    run_scenarios,
    run_table1,
)
from repro.isa import Interpreter, ProgramBuilder, annotate
from repro.params import CPUConfig
from repro.workloads import build_program


# ----------------------------------------------------------------------
# Scenarios.
# ----------------------------------------------------------------------
def test_scenarios_registered():
    assert set(SCENARIOS) == {"iram", "cmp", "now", "faulty-iram"}
    # Only the explicitly-faulty scenario carries a fault plan.
    assert all(SCENARIOS[name].faults is None
               for name in ("iram", "cmp", "now"))
    assert SCENARIOS["faulty-iram"].faults is not None


def test_scenario_parameters_are_ordered_by_integration():
    """More integration -> faster interconnect."""
    iram, cmp_, now = iram_scenario(), cmp_scenario(), now_scenario()
    assert (cmp_.bus.cycles_per_bus_cycle
            < iram.bus.cycles_per_bus_cycle
            < now.bus.cycles_per_bus_cycle)
    assert cmp_.bus.width_bytes > now.bus.width_bytes


def test_run_scenarios_cmp_fastest():
    program = build_program("compress")
    results = {r.scenario: r
               for r in run_scenarios(program, num_nodes=2, limit=5000)}
    assert set(results) == {"iram", "cmp", "now", "faulty-iram"}
    assert results["cmp"].datascalar_ipc > results["iram"].datascalar_ipc
    assert results["iram"].datascalar_ipc > results["now"].datascalar_ipc


def test_run_scenario_reports_speedup():
    program = build_program("compress")
    result = run_scenario(cmp_scenario(), program, limit=4000)
    assert result.speedup == pytest.approx(
        result.datascalar_ipc / result.traditional_ipc)


# ----------------------------------------------------------------------
# Export.
# ----------------------------------------------------------------------
def test_rows_to_csv_and_json_roundtrip():
    rows = run_table1(benchmarks=["go", "compress"], limit=20000)
    csv_text = rows_to_csv(rows)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("benchmark,")
    assert len(lines) == 3
    parsed = json.loads(rows_to_json(rows))
    assert parsed[0]["benchmark"] == "go"
    assert 0.0 <= parsed[0]["bytes_eliminated"] < 1.0


def test_export_writes_files(tmp_path):
    rows = run_table1(benchmarks=["go"], limit=10000)
    csv_path = tmp_path / "t1.csv"
    json_path = tmp_path / "t1.json"
    write_csv(csv_path, rows)
    write_json(json_path, rows)
    assert csv_path.read_text().startswith("benchmark")
    assert json.loads(json_path.read_text())[0]["benchmark"] == "go"


def test_export_rejects_unknown_rows():
    with pytest.raises(TypeError):
        rows_to_csv([object()])


def test_export_empty():
    assert rows_to_csv([]) == ""
    assert json.loads(rows_to_json([])) == []


# ----------------------------------------------------------------------
# Store-to-load forwarding.
# ----------------------------------------------------------------------
def test_load_forwards_from_same_address_store():
    b = ProgramBuilder()
    base = b.alloc_global("x", 8)
    b.li("r1", base)
    b.li("r2", 42)
    b.sw("r2", "r1", 0)
    b.lw("r3", "r1", 0)
    b.halt()

    class NeverLoad(PerfectMemory):
        def load_issue(self, now, addr, size):
            raise AssertionError("should forward from the LSQ")

    pipeline = Pipeline(CPUConfig(), NeverLoad(),
                        annotate(Interpreter(b.build()).trace()))
    stats = pipeline.run(100_000)
    assert stats.loads == 1


def test_export_extra_columns():
    from repro.analysis.export import rows_to_csv
    rows = run_table1(benchmarks=["go"], limit=5000)
    text = rows_to_csv(rows, extra_columns=[{"nodes": 2}])
    lines = text.strip().splitlines()
    assert lines[0].endswith(",nodes")
    assert lines[1].endswith(",2")


def test_scenarios_at_four_nodes():
    from repro.experiments import iram_scenario, run_scenario
    result = run_scenario(iram_scenario(), build_program("compress"),
                          num_nodes=4, limit=4000)
    assert result.datascalar_ipc > 0
    assert result.speedup > 1.0
