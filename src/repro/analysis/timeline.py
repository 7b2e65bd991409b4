"""Cycle-sampled timelines of a DataScalar run.

Attach a :class:`TimelineRecorder` to ``DataScalarSystem.run(observer=…)``
to sample per-node progress (commits, BSHR/DCUB occupancy) and
interconnect load over time — the raw series behind utilization plots
and behind diagnosing convoying between nodes.

The samples are stored as :class:`repro.obs.metrics.Series` inside a
:class:`~repro.obs.metrics.MetricsRegistry` under ``timeline.*`` names
(``timeline.cycle``, ``timeline.committed.0``, ...), so a metrics export
of a recorded run carries the full timeline.  The public surface —
``timeline.samples``, ``series()``, ``commit_skew()``, and the
``to_csv()`` column schema — is unchanged.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from ..obs.metrics import MetricsRegistry

#: Per-node sampled fields, in CSV column-group order.
_NODE_FIELDS = ("committed", "bshr_occupancy", "dcub_occupancy",
                "broadcasts_sent")
#: CSV column-group labels for the per-node fields.
_CSV_LABELS = {"committed": "committed", "bshr_occupancy": "bshr",
               "dcub_occupancy": "dcub", "broadcasts_sent": "broadcasts"}


@dataclass
class TimelineSample:
    """One sampling instant."""

    cycle: int
    committed: "list[int]"
    bshr_occupancy: "list[int]"
    dcub_occupancy: "list[int]"
    broadcasts_sent: "list[int]"
    bus_transactions: int


class Timeline:
    """The collected series, registry-backed."""

    def __init__(self, registry: "MetricsRegistry | None" = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.num_nodes = 0

    def append(self, sample: TimelineSample) -> None:
        """Record one sampling instant into the registry series."""
        if self.num_nodes == 0:
            self.num_nodes = len(sample.committed)
        registry = self.registry
        registry.series("timeline.cycle").append(sample.cycle)
        registry.series("timeline.bus_transactions").append(
            sample.bus_transactions)
        for name in _NODE_FIELDS:
            values = getattr(sample, name)
            for node, value in enumerate(values):
                registry.series(f"timeline.{name}.{node}").append(value)

    def __len__(self) -> int:
        if "timeline.cycle" not in self.registry:
            return 0
        return len(self.registry.series("timeline.cycle"))

    @property
    def samples(self) -> "list[TimelineSample]":
        """The recorded instants, synthesized from the registry."""
        count = len(self)
        if not count:
            return []
        registry = self.registry
        cycle = registry.series("timeline.cycle").values
        bus = registry.series("timeline.bus_transactions").values
        per_node = {
            name: [registry.series(f"timeline.{name}.{node}").values
                   for node in range(self.num_nodes)]
            for name in _NODE_FIELDS
        }
        return [
            TimelineSample(
                cycle=int(cycle[i]),
                committed=[int(series[i])
                           for series in per_node["committed"]],
                bshr_occupancy=[int(series[i])
                                for series in per_node["bshr_occupancy"]],
                dcub_occupancy=[int(series[i])
                                for series in per_node["dcub_occupancy"]],
                broadcasts_sent=[int(series[i])
                                 for series in per_node["broadcasts_sent"]],
                bus_transactions=int(bus[i]),
            )
            for i in range(count)
        ]

    def series(self, name: str, node=None):
        """Extract one series: a scalar field, or a per-node field with
        ``node`` selecting the element."""
        if name in _NODE_FIELDS:
            if node is None:
                raise ValueError(f"{name} is per-node; pass node=")
            return list(self.registry.series(f"timeline.{name}.{node}").values)
        return list(self.registry.series(f"timeline.{name}").values)

    def cycles(self):
        return self.series("cycle")

    def commit_skew(self):
        """Max-min committed count per sample — how far ahead the leader
        runs (the datathreading skew)."""
        columns = [self.registry.series(f"timeline.committed.{node}").values
                   for node in range(self.num_nodes)]
        return [max(row) - min(row) for row in zip(*columns)]

    def to_csv(self) -> str:
        if not len(self):
            return ""
        nodes = self.num_nodes
        fields = (["cycle"]
                  + [f"{_CSV_LABELS[name]}_{i}"
                     for name in _NODE_FIELDS for i in range(nodes)]
                  + ["bus_transactions"])
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(fields)
        for s in self.samples:
            writer.writerow([s.cycle, *s.committed, *s.bshr_occupancy,
                             *s.dcub_occupancy, *s.broadcasts_sent,
                             s.bus_transactions])
        return buffer.getvalue()


class TimelineRecorder:
    """The observer: pass to ``DataScalarSystem.run(observer=recorder)``."""

    def __init__(self, sample_every: int = 200,
                 registry: "MetricsRegistry | None" = None):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.timeline = Timeline(registry)

    def __call__(self, cycle, pipelines, nodes, medium) -> None:
        if cycle % self.sample_every:
            return
        self.timeline.append(TimelineSample(
            cycle=cycle,
            committed=[p.stats.committed for p in pipelines],
            bshr_occupancy=[n.bshr.occupancy() for n in nodes],
            dcub_occupancy=[n.dcub.occupancy() for n in nodes],
            broadcasts_sent=[n.broadcaster.stats.sent for n in nodes],
            bus_transactions=medium.transactions,
        ))
