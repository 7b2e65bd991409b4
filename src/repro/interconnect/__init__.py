"""The global interconnect: the broadcast bus, a ring, queue timing."""

from .medium import BroadcastMedium, Bus, LatencyQueue, Ring, make_medium

__all__ = [
    "Bus",
    "Ring",
    "LatencyQueue",
    "BroadcastMedium",
    "make_medium",
]
