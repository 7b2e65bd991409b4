"""Interconnect substrates: messages, queues, broadcast bus, ring."""

from .bus import Bus, BusStats
from .medium import (
    BroadcastMedium,
    BusMedium,
    RingMedium,
    make_medium,
)
from .message import Message, MessageKind
from .queueing import LatencyQueue
from .ring import Ring

__all__ = [
    "Bus",
    "BusStats",
    "BroadcastMedium",
    "BusMedium",
    "RingMedium",
    "make_medium",
    "Message",
    "MessageKind",
    "LatencyQueue",
    "Ring",
]
