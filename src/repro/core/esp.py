"""Synchronous ESP: the Massive Memory Machine execution model.

Section 2 / Figure 1 of the paper describe the MMM's lock-step ESP: all
processors run the same program synchronously; the *lead* processor owns
the operands being accessed and broadcasts each one; when execution
reaches an operand the leader does not own, a *lead change* stalls every
processor until the new leader catches up and its operand arrives.

This model is the conceptual baseline DataScalar generalizes (asynchronous
ESP = ESP + out-of-order cores + tags on broadcasts), and reproduces the
Figure 1 schedule exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError


@dataclass
class ESPResult:
    """Outcome of a synchronous-ESP schedule."""

    #: Cycle at which every processor has received each word.
    receive_times: "list[int]"
    #: Number of lead changes incurred.
    lead_changes: int
    #: Length (in words) of each single-leader run — the MMM's one-at-a-
    #: time datathreads.
    datathreads: "list[int]" = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return self.receive_times[-1] if self.receive_times else 0


class MassiveMemoryMachine:
    """Lock-step SISD machine with a global broadcast bus.

    ``broadcast_latency`` is the bus transit per word while the leader
    stays the same (consecutive owned words pipeline at this rate);
    ``lead_change_penalty`` is the stall for a new leader to catch up and
    deliver its first word (Figure 1 shows 3 cycles: w4 at cycle 4, w5 at
    cycle 7).  Tags are unnecessary — synchronous processors infer the
    address from broadcast order (Section 3.1).
    """

    def __init__(self, num_processors: int, broadcast_latency: int = 1,
                 lead_change_penalty: int = 3):
        if num_processors < 1:
            raise ConfigError("need at least one processor")
        if broadcast_latency < 1:
            raise ConfigError("broadcast_latency must be >= 1")
        if lead_change_penalty < broadcast_latency:
            raise ConfigError(
                "a lead change cannot be cheaper than a pipelined broadcast"
            )
        self.num_processors = num_processors
        self.broadcast_latency = broadcast_latency
        self.lead_change_penalty = lead_change_penalty

    def schedule(self, owners) -> ESPResult:
        """Schedule a reference string.

        ``owners[i]`` is the processor owning word ``i``.  Returns the
        cycle each word has been received by all processors.
        """
        receive_times = []
        datathreads = []
        lead_changes = 0
        leader = None
        run_length = 0
        time = 0
        for owner in owners:
            if not 0 <= owner < self.num_processors:
                raise ConfigError(f"owner {owner} out of range")
            if owner == leader:
                time += self.broadcast_latency
                run_length += 1
            else:
                if leader is not None:
                    lead_changes += 1
                    datathreads.append(run_length)
                    time += self.lead_change_penalty
                else:
                    time += self.broadcast_latency
                leader = owner
                run_length = 1
            receive_times.append(time)
        if run_length:
            datathreads.append(run_length)
        return ESPResult(receive_times=receive_times,
                         lead_changes=lead_changes,
                         datathreads=datathreads)

    def figure1_example(self) -> ESPResult:
        """The paper's Figure 1 reference string: ten words, w5–w7 owned
        by machine 1 (zero-indexed), the rest by machine 0."""
        owners = [0, 0, 0, 0, 1, 1, 1, 0, 0]
        return self.schedule(owners)
