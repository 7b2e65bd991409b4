"""Tests for CSV export and store-to-load forwarding."""

import csv
import io

import pytest

from repro.analysis import rows_to_csv, write_csv
from repro.baseline.perfect import PerfectMemory
from repro.core.system import drive
from repro.cpu.pipeline import Pipeline
from repro.experiments import run_table1
from repro.isa import Interpreter, ProgramBuilder
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
    parsed = list(csv.DictReader(io.StringIO(csv_text)))
    assert parsed[0]["benchmark"] == "go"
    assert 0.0 <= float(parsed[0]["bytes_eliminated"]) < 1.0


def test_export_writes_files(tmp_path):
    rows = run_table1(benchmarks=["go"], limit=10000)
    csv_path = tmp_path / "t1.csv"
    write_csv(csv_path, rows)
    assert csv_path.read_text().startswith("benchmark")
    assert csv_path.read_text().splitlines()[1].startswith("go,")


def test_export_rejects_unknown_rows():
    with pytest.raises(TypeError):
        rows_to_csv([object()])


def test_export_empty():
    assert rows_to_csv([]) == ""


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
                        Interpreter(b.build()).trace())
    drive([pipeline], 100_000, what="pipeline")
    assert pipeline.stats.loads == 1
