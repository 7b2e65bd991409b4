"""Per-layer breakdown of a cProfile-traced run.

Layers are the package's modules (``core/system.py``, the cycle
scheduler, is split from the rest of ``core``).  A function's ``tottime``
is charged to the layer of the file that defines it.  A builtin's, and
that of code compiled from a string (namedtuple and dataclass methods),
goes to the layer of the function that called it, so ``list.sort``
inside the issue stage counts as ``cpu`` and building a ``DynInstr``
counts where it is built.  Generated front-end code (compiled under a
``<repro.codegen:...>`` file name) is ``isa``.  Frames outside the
package are ``unattributed``.

Call counts come from the same profile, at fixed entry points.
"""

from __future__ import annotations

from pathlib import Path

#: The package's subpackages, each its own layer.
SUBPACKAGES = ("isa", "cpu", "memory", "core", "interconnect", "faults",
               "baseline", "runner", "analysis", "workloads", "experiments",
               "obs", "checkpoint")
#: Every layer, in report order.
LAYERS = SUBPACKAGES[:3] + ("core.system",) + SUBPACKAGES[3:] + (
    "repro", "unattributed")

CODEGEN_PREFIX = "<repro.codegen:"
#: File names of functions charged to their caller's layer.
CALLER_CHARGED = ("~", "<string>")

#: Count name -> the (file under ``repro/``, function name) pairs whose
#: calls it sums.
COUNTS = {
    "cpu.ticks": (("cpu/pipeline.py", "tick"),),
    "cpu.requeues": (("cpu/ruu.py", "requeue"),),
    "core.system.next_event_calls": (("cpu/pipeline.py", "next_event"),),
    "core.system.note_skipped_calls": (("cpu/pipeline.py", "note_skipped"),),
    "core.load_issues": (("core/node.py", "load_issue"),),
    "core.commit_mems": (("core/node.py", "commit_mem"),),
    "core.broadcasts": (("core/broadcast.py", "broadcast"),),
    "core.bshr_loads": (("core/bshr.py", "load"),),
    "memory.cache_accesses": (("memory/cache.py", "commit_access"),
                              ("memory/cache.py", "lookup")),
    "interconnect.broadcasts": (("interconnect/medium.py", "broadcast"),),
    "faults.broadcasts": (("faults/medium.py", "broadcast"),),
}


def layer_of(relpath: str) -> str:
    """Layer of a file, given its path relative to ``src/repro``."""
    parts = Path(relpath).parts
    if len(parts) == 1:
        return "repro"
    if relpath == "core/system.py":
        return "core.system"
    if parts[0] in SUBPACKAGES:
        return parts[0]
    return "unattributed"


class Attribution:
    """Layer self-times and entry-point call counts of one profile."""

    def __init__(self, stats: dict, package_root: Path):
        #: ``pstats.Stats(...).stats``: key -> (cc, nc, tt, ct, callers).
        self.stats = stats
        self.prefix = str(package_root.resolve()) + "/"
        self._layers: "dict[tuple, str]" = {}

    def _direct_layer(self, key) -> "str | None":
        """A function's own layer; ``None`` if charged to its caller."""
        filename = key[0]
        if filename in CALLER_CHARGED:
            return None
        if filename.startswith(CODEGEN_PREFIX):
            return "isa"
        if filename.startswith(self.prefix):
            return layer_of(filename[len(self.prefix):])
        return "unattributed"

    def _caller_layer(self, key, seen=()) -> str:
        """Layer a function's time counts in: its own, or for a
        caller-charged one that of the caller which spent the most time
        in it."""
        layer = self._layers.get(key)
        if layer is not None:
            return layer
        layer = self._direct_layer(key)
        if layer is None:
            callers = self.stats[key][4]
            heaviest = [caller for caller, _ in sorted(
                callers.items(), key=lambda item: -item[1][2])
                if caller not in seen and caller in self.stats]
            layer = (self._caller_layer(heaviest[0], seen + (key,))
                     if heaviest else "unattributed")
        self._layers[key] = layer
        return layer

    def self_seconds(self) -> "dict[str, float]":
        """Every layer's self time; a caller-charged function's time is
        split over its callers' layers by how much each spent in it."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for key, (_, _, tottime, _, callers) in self.stats.items():
            layer = self._direct_layer(key)
            if layer is not None:
                totals[layer] += tottime
                continue
            charged = 0.0
            for caller, caller_stats in callers.items():
                if caller in self.stats:
                    totals[self._caller_layer(caller)] += caller_stats[2]
                    charged += caller_stats[2]
            totals["unattributed"] += max(0.0, tottime - charged)
        return totals

    def counts(self) -> "dict[str, int]":
        calls: "dict[tuple[str, str], int]" = {}
        for (filename, _, function), row in self.stats.items():
            if filename.startswith(self.prefix):
                site = (filename[len(self.prefix):], function)
                calls[site] = calls.get(site, 0) + row[1]
        return {name: sum(calls.get(site, 0) for site in sites)
                for name, sites in COUNTS.items()}
