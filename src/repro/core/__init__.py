"""The DataScalar execution model: ESP, BSHR, DCUB, correspondence."""

from .bshr import BSHRFile, BSHRStats
from .broadcast import Broadcaster, BroadcastStats
from .correspondence import CorrespondenceStats, CorrespondenceTracker
from .datathread import DatathreadAnalyzer, DatathreadReport, analyze_stream
from .dcub import DCUB, DCUBEntry
from .esp import ESPResult, MassiveMemoryMachine
from .hybrid import (
    HybridResult,
    HybridSystem,
    ParallelPhase,
    PhaseResult,
    SerialPhase,
)
from .node import DataScalarNode
from .placement import (
    AffinityGraph,
    PlacementPlan,
    plan_placement,
    round_robin_placement,
)
from .replication import ReplicationPlan, plan_replication, select_hot_pages
from .resultcomm import (
    PrivateRegion,
    ResultCommReport,
    ResultCommunicationAnalyzer,
)
from .system import DataScalarResult, DataScalarSystem, NodeResult

__all__ = [
    "BSHRFile",
    "BSHRStats",
    "Broadcaster",
    "BroadcastStats",
    "CorrespondenceStats",
    "CorrespondenceTracker",
    "DatathreadAnalyzer",
    "DatathreadReport",
    "analyze_stream",
    "DCUB",
    "DCUBEntry",
    "ESPResult",
    "MassiveMemoryMachine",
    "HybridResult",
    "HybridSystem",
    "ParallelPhase",
    "PhaseResult",
    "SerialPhase",
    "AffinityGraph",
    "PlacementPlan",
    "plan_placement",
    "round_robin_placement",
    "DataScalarNode",
    "ReplicationPlan",
    "plan_replication",
    "select_hot_pages",
    "PrivateRegion",
    "ResultCommReport",
    "ResultCommunicationAnalyzer",
    "DataScalarResult",
    "DataScalarSystem",
    "NodeResult",
]
