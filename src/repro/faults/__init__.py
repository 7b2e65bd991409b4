"""Seeded fault injection and recovery for the ESP broadcast transport.

The paper's ESP discipline is request-free: a consumer allocates a BSHR
entry and *trusts* the owner's broadcast.  This package lets the
transport break that trust — deterministically, from a recorded seed —
and supplies the recovery protocol (sequence numbers, NACKs, a
recovery-only retransmit-request slow path with bounded backoff) that
turns every injected fault into either an identical architectural result
or a typed error.  See ``docs/protocol.md`` ("Failure model and
recovery") for the full discipline.

Configuration lives in :class:`repro.params.FaultConfig`; set
``SystemConfig.faults`` to arm the layer.
"""

from ..params import FaultConfig
from .medium import FaultyMedium
from .plan import BroadcastFault, FaultPlan
from .stats import FaultStats, RecoveryStats

__all__ = [
    "BroadcastFault",
    "FaultConfig",
    "FaultPlan",
    "FaultStats",
    "FaultyMedium",
    "RecoveryStats",
]
