"""Simple queue timing models.

The paper charges a two-cycle penalty in the broadcast queue before data
reach the global bus, and the same penalty at the traditional system's
network interface.  :class:`LatencyQueue` models a FIFO with a fixed
service latency and single-item-per-cycle drain.
"""

from __future__ import annotations

from ..errors import ConfigError


class LatencyQueue:
    """FIFO with fixed latency and unit drain bandwidth.

    ``enqueue(now)`` returns the cycle the item emerges: at least
    ``now + latency``, and at least one cycle after the previous item.
    """

    def __init__(self, latency: int, name: str = "queue"):
        if latency < 0:
            raise ConfigError("queue latency must be >= 0")
        self.latency = latency
        self.name = name
        self._last_out = -1
        self.items = 0
        self.total_delay = 0

    def enqueue(self, now: int) -> int:
        out = max(now + self.latency, self._last_out + 1)
        self._last_out = out
        self.items += 1
        self.total_delay += out - now
        return out

    def mean_delay(self) -> float:
        return self.total_delay / self.items if self.items else 0.0

    def reset(self) -> None:
        self._last_out = -1
        self.items = 0
        self.total_delay = 0

