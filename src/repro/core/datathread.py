"""Datathread-length measurement (paper Section 3.2, Table 2).

A *datathread* is a run of consecutive references local to one node.  The
paper's approximation: "count consecutive references on a node, beginning
the count upon the first reference to a communicated datum local to some
node, ending (and restarting) the count upon the next reference to
communicated data local to a different node."  References to replicated
pages extend the current run (they are local everywhere); contiguous
replicated references are also tracked separately (Table 2's right-most
column).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memory.page_table import PageTable


@dataclass
class DatathreadReport:
    """Mean run lengths produced by one analyzer."""

    runs: int
    mean_length: float
    references: int
    replicated_runs: int
    mean_replicated_length: float


class DatathreadAnalyzer:
    """Streams references and accumulates datathread runs."""

    def __init__(self, page_table: PageTable):
        self.page_table = page_table
        self._current_node: int | None = None
        self._current_length = 0
        self._run_lengths_sum = 0
        self._run_count = 0
        self._repl_length = 0
        self._repl_sum = 0
        self._repl_count = 0
        self.references = 0

    def observe(self, addr: int) -> None:
        """Feed the next reference (typically a cache miss) in order."""
        self.references += 1
        entry = self.page_table.entry_for(addr)
        if entry.replicated:
            # Local at every node: extends the current datathread and a
            # contiguous-replicated run.
            if self._current_node is not None:
                self._current_length += 1
            self._repl_length += 1
            return
        self._end_replicated_run()
        owner = entry.owner
        if owner == self._current_node:
            self._current_length += 1
        else:
            self._end_datathread()
            self._current_node = owner
            self._current_length = 1

    def _end_datathread(self) -> None:
        if self._current_node is not None and self._current_length:
            self._run_lengths_sum += self._current_length
            self._run_count += 1
        self._current_length = 0

    def _end_replicated_run(self) -> None:
        if self._repl_length:
            self._repl_sum += self._repl_length
            self._repl_count += 1
        self._repl_length = 0

    def finish(self) -> DatathreadReport:
        """Close open runs and report the means."""
        self._end_datathread()
        self._current_node = None
        self._end_replicated_run()
        mean = (self._run_lengths_sum / self._run_count
                if self._run_count else 0.0)
        repl_mean = (self._repl_sum / self._repl_count
                     if self._repl_count else 0.0)
        return DatathreadReport(
            runs=self._run_count,
            mean_length=mean,
            references=self.references,
            replicated_runs=self._repl_count,
            mean_replicated_length=repl_mean,
        )


def analyze_stream(page_table: PageTable, addresses) -> DatathreadReport:
    """Convenience: run one analyzer over an address iterable."""
    analyzer = DatathreadAnalyzer(page_table)
    for addr in addresses:
        analyzer.observe(addr)
    return analyzer.finish()
