"""Tests for CSV/JSON export and store-to-load forwarding."""

import json

import pytest

from repro.analysis import rows_to_csv, rows_to_json, write_csv, write_json
from repro.baseline.perfect import PerfectMemory
from repro.cpu.pipeline import Pipeline
from repro.experiments import run_table1
from repro.isa import Interpreter, ProgramBuilder, annotate
from repro.params import CPUConfig


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
