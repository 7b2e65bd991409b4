"""Tests for the workloads CLI."""

import pytest

from repro.errors import ReproError
from repro.workloads.__main__ import main as workloads_main


def test_cli_list(capsys):
    assert workloads_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "compress" in out and "tomcatv" in out and "[fp]" in out


def test_cli_run(capsys):
    assert workloads_main(["run", "go", "--limit", "2000"]) == 0
    out = capsys.readouterr().out
    assert "go (scale 1)" in out
    assert "instructions" in out


def test_cli_disasm(capsys):
    assert workloads_main(["disasm", "li"]) == 0
    out = capsys.readouterr().out
    assert "lw" in out and "halt" in out


def test_cli_unknown_workload():
    with pytest.raises(ReproError):
        workloads_main(["run", "crysis"])


@pytest.mark.parametrize("argv", [
    ["run", "go", "--limit", "-5"],
    ["run", "go", "--limit", "0"],
    ["run", "go", "--scale", "0"],
    ["run", "go", "--scale", "-1"],
    ["disasm", "go", "--scale", "0"],
])
def test_cli_rejects_limit_and_scale_below_one(argv, capsys):
    with pytest.raises(SystemExit) as info:
        workloads_main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be > 0" in err
