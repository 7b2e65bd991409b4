"""Outbound broadcast path: queue -> broadcast medium -> every other node.

Paper Section 4.2: "We use a simple queue to buffer broadcasts being
placed on the global bus" with a two-cycle access penalty before the data
reach the interconnect.  The interconnect itself is pluggable (bus or
ring — see :mod:`repro.interconnect.medium`).
"""

from __future__ import annotations

from ..interconnect.medium import BroadcastMedium, LatencyQueue
from ..obs.events import EventKind


class BroadcastStats:
    """Counters behind Table 3's broadcast columns."""

    __slots__ = ("sent", "late")

    def __init__(self):
        self.sent = 0
        self.late = 0


class Broadcaster:
    """One node's transmit side."""

    def __init__(self, node_id: int, medium: BroadcastMedium,
                 queue_latency: int, line_size: int, deliver,
                 num_peers: int = 1):
        """``deliver(src, line, arrivals)`` hands the finished broadcast
        to the other nodes (``arrivals[i]`` is node i's receive cycle,
        ``None`` for the sender).  With zero peers nothing is sent."""
        self.node_id = node_id
        self.medium = medium
        self.queue = LatencyQueue(queue_latency)
        self.line_size = line_size
        self._deliver = deliver
        self.num_peers = num_peers
        self.stats = BroadcastStats()
        self._tracer = None  # observability hook (None = untraced)

    def attach_tracer(self, tracer) -> None:
        """Emit BCAST_SEND events to ``tracer`` as this node."""
        self._tracer = tracer

    def broadcast(self, now: int, line: int, late: bool = False) -> None:
        """Send ``line`` to all other nodes starting at ``now`` (the cycle
        the data are available on-chip); ``deliver`` hands each receiver
        its arrival cycle."""
        if self.num_peers == 0:
            return
        queued = self.queue.enqueue(now)
        arrivals = self.medium.broadcast(queued, self.node_id, line,
                                         self.line_size)
        self.stats.sent += 1
        if late:
            self.stats.late += 1
        if self._tracer is not None:
            # Emitted before delivery so each send immediately precedes
            # its arrivals in the stream (the Chrome exporter pairs
            # send -> arrival flow arrows by that ordering).
            self._tracer.emit(EventKind.BCAST_SEND, queued, self.node_id,
                              line=line, late=late, seq=self.stats.sent)
        self._deliver(self.node_id, line, arrivals)
