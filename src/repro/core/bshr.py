"""Broadcast Status Holding Registers.

Paper Section 4.2 / Figure 5: "When a broadcast arrives from the network,
the BSHR performs an associative search on that address.  If a match
occurs, the earliest entry matching that address in the queue is freed
and the data are forwarded to the processor.  If no match occurs, the
BSHR allocates the next entry in the queue and buffers the data.  In this
case, when the processor issues the request for the data, it finds them
waiting in the BSHR, and effectively sees an on-chip hit."

The processor-to-BSHR datapath squashes entries — either entries
allocated by false misses, or arrivals made superfluous by false hits
(the commit-time reconciliation schedules a discard for the broadcast
the owner sends for a canonically-missing line this node false-hit on).
"""

from __future__ import annotations

from collections import deque

from ..errors import ProtocolError
from ..obs.events import EventKind
from ..params import BSHRConfig


class BSHRStats:
    """Counters behind the Table 3 columns."""

    __slots__ = ("waits", "found_in_bshr", "squashes", "arrivals")

    def __init__(self):
        self.waits = 0
        self.found_in_bshr = 0
        self.squashes = 0
        self.arrivals = 0


class BSHRFile:
    """Per-node broadcast receive structures.

    Tracks, per line address: loads waiting for a broadcast, buffered
    arrivals not yet consumed, and discards scheduled by the
    correspondence protocol.  Capacity is not modeled: a load never
    stalls for a free entry and an arrival is never dropped (the paper's
    receive queues are sized to make overflow negligible).
    """

    def __init__(self, config: BSHRConfig, name: str = "bshr"):
        self.config = config
        self.name = name
        self._waiting: "dict[int, deque]" = {}
        self._arrived: "dict[int, deque]" = {}
        self._discards: "dict[int, int]" = {}
        self.stats = BSHRStats()
        self._tracer = None  # observability hook (None = untraced)
        self._trace_node = 0

    def attach_tracer(self, tracer, node_id: int) -> None:
        """Emit this BSHR's events to ``tracer`` as node ``node_id``."""
        self._tracer = tracer
        self._trace_node = node_id

    # ------------------------------------------------------------------
    # Processor side.
    # ------------------------------------------------------------------
    def load(self, now: int, line: int, handle) -> None:
        """A load to an unowned communicated ``line`` reaches the BSHR.

        If a broadcast already arrived the load sees an effective on-chip
        hit; otherwise the handle waits for the matching arrival.
        """
        arrived = self._arrived.get(line)
        if arrived:
            arrival_time = arrived.popleft()
            if not arrived:
                del self._arrived[line]
            ready = max(arrival_time, now) + self.config.access_latency
            handle.found_in_bshr = arrival_time <= now
            if handle.found_in_bshr:
                self.stats.found_in_bshr += 1
            else:
                self.stats.waits += 1
            if self._tracer is not None:
                self._tracer.emit(EventKind.BSHR_FILL, now, self._trace_node,
                                  line=line, found=handle.found_in_bshr)
            handle.complete(ready)
            return
        self.stats.waits += 1
        if self._tracer is not None:
            self._tracer.emit(EventKind.BSHR_ALLOC, now, self._trace_node,
                              line=line)
        self._waiting.setdefault(line, deque()).append(handle)

    def schedule_discard(self, line: int) -> None:
        """Commit-time squash: one future (or buffered) arrival for
        ``line`` must be consumed without waking any load."""
        arrived = self._arrived.get(line)
        if arrived:
            arrival_time = arrived.popleft()
            if not arrived:
                del self._arrived[line]
            self.stats.squashes += 1
            if self._tracer is not None:
                self._tracer.emit(EventKind.BCAST_CONSUME, arrival_time,
                                  self._trace_node, line=line, squashed=True)
            return
        self._discards[line] = self._discards.get(line, 0) + 1

    # ------------------------------------------------------------------
    # Network side.
    # ------------------------------------------------------------------
    def arrival(self, time: int, line: int) -> None:
        """A broadcast for ``line`` arrives (fully transferred) at
        ``time``."""
        self.stats.arrivals += 1
        discards = self._discards.get(line, 0)
        if discards:
            if discards == 1:
                del self._discards[line]
            else:
                self._discards[line] = discards - 1
            self.stats.squashes += 1
            if self._tracer is not None:
                self._tracer.emit(EventKind.BCAST_CONSUME, time,
                                  self._trace_node, line=line, squashed=True)
            return
        waiting = self._waiting.get(line)
        if waiting:
            handle = waiting.popleft()
            if not waiting:
                del self._waiting[line]
            ready = max(time, handle.issued_at) + self.config.access_latency
            if self._tracer is not None:
                self._tracer.emit(EventKind.BCAST_CONSUME, time,
                                  self._trace_node, line=line, squashed=False)
            handle.complete(ready)
            return
        self._arrived.setdefault(line, deque()).append(time)

    # ------------------------------------------------------------------
    # Bookkeeping.
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Entries in use: waiting loads plus buffered arrivals."""
        waiting = sum(len(q) for q in self._waiting.values())
        arrived = sum(len(q) for q in self._arrived.values())
        return waiting + arrived

    def outstanding_waits(self) -> int:
        return sum(len(q) for q in self._waiting.values())

    def assert_drained(self) -> None:
        """At end of simulation no load may still be waiting (a waiter
        with no broadcast coming is the deadlock the paper's protocol
        must prevent)."""
        if self.outstanding_waits():
            lines = [hex(line) for line in self._waiting]
            raise ProtocolError(
                f"{self.name}: loads still waiting for broadcasts of "
                f"lines {lines} — correspondence protocol failure"
            )
