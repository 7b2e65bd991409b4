"""Table 2: approximate datathread measurements for a four-processor
system.

Per benchmark: profile page accesses, statically replicate the hottest
pages, distribute the rest round-robin in the largest block that still
splits every segment, then measure mean datathread lengths over the
post-cache miss stream — for all references, instruction references,
data references, and contiguous replicated-page references.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.report import format_table
from ..core.datathread import DatathreadAnalyzer
from ..core.replication import plan_replication
from ..isa.interpreter import Interpreter
from ..isa.trace import IFETCH
from ..memory.address import Segment
from ..memory.cache import Cache
from ..memory.layout import LayoutSpec, build_page_table
from ..params import CacheConfig
from ..workloads import TABLE_BENCHMARKS, build_program

#: Post-profile measurement caches (split I/D, scaled like Table 1's).
#: The instruction cache is deliberately small so the scaled kernels'
#: loop bodies still generate an instruction miss stream to measure.
MEASUREMENT_ICACHE = CacheConfig(size_bytes=1024, assoc=2, line_size=32)
MEASUREMENT_DCACHE = CacheConfig(size_bytes=4 * 1024, assoc=2, line_size=32,
                                 write_allocate=True)


@dataclass
class Table2Row:
    """One benchmark's Table 2 line."""

    benchmark: str
    distribution_kb: float
    replicated_text: int
    replicated_global: int
    replicated_heap: int
    replicated_stack: int
    thread_all: float
    thread_text: float
    thread_data: float
    replicated_run: float


def _thread_length(report) -> float:
    """Mean datathread length, honoring the paper's boundary case: a
    stream whose references are all local to one node (e.g. fully
    replicated) is one unbroken thread whose length is the number of
    references."""
    if report.runs == 0 and report.references > 0:
        return float(report.references)
    return report.mean_length


def measure_datathreads(name: str, scale: int = 1, num_nodes: int = 4,
                        budget_pages: int = 6, page_size: int = 1024,
                        limit=None) -> Table2Row:
    """One benchmark's Table 2 measurement (the ``datathread`` sweep
    executor): plan replication, lay out pages, then walk the post-cache
    miss stream through three datathread analyzers."""
    program = build_program(name, scale)
    plan = plan_replication(program, page_size, num_nodes,
                            budget_pages, limit=limit)
    spec = LayoutSpec(
        num_nodes=num_nodes,
        page_size=page_size,
        distribution_block_pages=plan.distribution_block_pages,
        replicate_text=False,  # Table 2 replicates by profile only
        replicated_pages=plan.replicated_pages,
    )
    table, _summary = build_page_table(program, spec)
    all_refs = DatathreadAnalyzer(table)
    text_refs = DatathreadAnalyzer(table)
    data_refs = DatathreadAnalyzer(table)
    icache = Cache(MEASUREMENT_ICACHE, name="t2i")
    dcache = Cache(MEASUREMENT_DCACHE, name="t2d")
    # Interpreted, like every trace-level study: generated code has
    # only the timing runs' record stream (docs/simulator.md).
    interp = Interpreter(program)
    for ref in interp.mem_refs(limit=limit, include_ifetch=True):
        if ref.kind == IFETCH:
            result = icache.commit_access(ref.addr, is_write=False)
            if not result.hit:
                all_refs.observe(ref.addr)
                text_refs.observe(ref.addr)
        else:
            result = dcache.commit_access(ref.addr,
                                          is_write=(ref.kind == "W"))
            if not result.hit:
                all_refs.observe(ref.addr)
                data_refs.observe(ref.addr)
    report_all = all_refs.finish()
    report_text = text_refs.finish()
    report_data = data_refs.finish()
    by_segment = plan.replicated_by_segment()
    return Table2Row(
        benchmark=name,
        distribution_kb=plan.distribution_block_pages * page_size / 1024,
        replicated_text=by_segment[Segment.TEXT],
        replicated_global=by_segment[Segment.GLOBAL],
        replicated_heap=by_segment[Segment.HEAP],
        replicated_stack=by_segment[Segment.STACK],
        thread_all=_thread_length(report_all),
        thread_text=_thread_length(report_text),
        thread_data=_thread_length(report_data),
        replicated_run=report_all.mean_replicated_length,
    )


def run_table2(benchmarks=None, scale: int = 1, num_nodes: int = 4,
               budget_pages: int = 6, page_size: int = 1024, limit=None,
               runner=None):
    """Regenerate Table 2 for ``num_nodes`` processors.

    ``page_size`` defaults to 1KB — the scaled stand-in for the paper's
    8KB pages against MB-scale working sets."""
    from ..runner import SweepPoint, get_default_runner

    runner = runner or get_default_runner()
    points = [
        SweepPoint.make(
            "datathread", name, scale=scale, limit=limit,
            num_nodes=num_nodes, budget_pages=budget_pages,
            page_size=page_size, label=f"table2/{name}",
        )
        for name in (benchmarks or TABLE_BENCHMARKS)
    ]
    return runner.run(points)


def format_table2(rows) -> str:
    return format_table(
        ["benchmark", "dist KB", "r.text", "r.glob", "r.heap", "r.stack",
         "thread(all)", "thread(text)", "thread(data)", "repl.run"],
        [[r.benchmark, r.distribution_kb, r.replicated_text,
          r.replicated_global, r.replicated_heap, r.replicated_stack,
          r.thread_all, r.thread_text, r.thread_data, r.replicated_run]
         for r in rows],
        title="Table 2: approximate datathread measurements (4 processors)",
    )
