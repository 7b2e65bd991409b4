"""Figure 1: operation of the ESP Massive Memory Machine.

Reproduces the paper's word-receive schedule: nine words, w5–w7 owned by
machine 2, the rest by machine 1; two lead changes; three datathreads of
lengths 4, 3, and 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.report import format_table
from ..core.esp import ESPResult, MassiveMemoryMachine


@dataclass
class Figure1Result:
    """The ESP schedule plus comparison scenarios."""

    paper_schedule: ESPResult
    single_owner: ESPResult
    worst_case: ESPResult


def compute_figure1(broadcast_latency: int = 1,
                    lead_change_penalty: int = 3) -> Figure1Result:
    """The pure measurement body (the ``esp-schedule`` sweep executor)."""
    mmm = MassiveMemoryMachine(num_processors=2,
                               broadcast_latency=broadcast_latency,
                               lead_change_penalty=lead_change_penalty)
    paper = mmm.figure1_example()
    n = len(paper.receive_times)
    best = mmm.schedule([0] * n)
    worst = mmm.schedule([i % 2 for i in range(n)])
    return Figure1Result(paper_schedule=paper, single_owner=best,
                         worst_case=worst)


def run_figure1(broadcast_latency: int = 1,
                lead_change_penalty: int = 3,
                runner=None) -> Figure1Result:
    """Regenerate Figure 1 plus best/worst-case reference strings of the
    same length."""
    from ..runner import SweepPoint, get_default_runner

    runner = runner or get_default_runner()
    point = SweepPoint.make(
        "esp-schedule",
        broadcast_latency=broadcast_latency,
        lead_change_penalty=lead_change_penalty,
        label="figure1/esp-schedule",
    )
    return runner.run([point])[0]


def format_figure1(result: Figure1Result) -> str:
    rows = []
    for index, time in enumerate(result.paper_schedule.receive_times):
        owner = 2 if 4 <= index <= 6 else 1
        rows.append([f"w{index + 1}", owner, time])
    schedule = format_table(
        ["word", "owner", "received at cycle"], rows,
        title="Figure 1: ESP Massive Memory Machine operation",
    )
    summary = (
        f"\nlead changes: {result.paper_schedule.lead_changes}, "
        f"datathreads: {result.paper_schedule.datathreads}, "
        f"total {result.paper_schedule.total_cycles} cycles "
        f"(single-owner {result.single_owner.total_cycles}, "
        f"alternating {result.worst_case.total_cycles})"
    )
    return schedule + summary
