"""The DataScalar execution model: ESP, BSHR, DCUB, correspondence."""

from .broadcast import Broadcaster, BroadcastStats
from .bshr import BSHRFile, BSHRStats
from .correspondence import CorrespondenceStats, CorrespondenceTracker
from .datathread import DatathreadAnalyzer, DatathreadReport, analyze_stream
from .dcub import DCUB, DCUBEntry
from .esp import ESPResult, MassiveMemoryMachine
from .node import DataScalarNode
from .replication import ReplicationPlan, plan_replication, select_hot_pages
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
    "DataScalarNode",
    "ReplicationPlan",
    "plan_replication",
    "select_hot_pages",
    "DataScalarResult",
    "DataScalarSystem",
    "NodeResult",
]
