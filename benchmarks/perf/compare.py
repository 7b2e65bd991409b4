"""Compare two benchmark records, workload by workload.

For every pairing of end-to-end metric and workload the verdict is one
of:

* ``improved``: the new side wins at least nine tenths of the paired
  runs and the medians differ by more than the base's IQR;
* ``regressed``: the new median is worse than the base median by more
  than the metric's bound;
* ``unresolved``: neither, but the run-to-run spread (IQR over median,
  either side) is wider than the bound, and not every new run reads
  better than every base run;
* ``unchanged``: otherwise.

Deterministic per-layer counts are compared exactly and reported as
counts.  Exit status 1 if any metric regressed.
"""

from __future__ import annotations

import json
import sys

from layers import COUNTS

#: Per-layer metrics that a run reproduces exactly (for a given seed).
COUNT_METRICS = tuple(COUNTS) + ("cpu.tick_ratio", "cpu.requeues_per_instr",
                                 "runner.points_executed")


def _relative_spread(entry: dict) -> float:
    spread = entry["q3"] - entry["q1"]
    if entry["median"]:
        return spread / abs(entry["median"])
    return 0.0 if spread == 0 else float("inf")


def verdict(base: dict, new: dict) -> str:
    """Verdict for one metric; ``base``/``new`` are record entries
    (``values``, ``median``, ``q1``, ``q3``, ``better``, ``bound``)."""
    sign = 1.0 if base["better"] == "lower" else -1.0

    def better(a: float, b: float) -> bool:
        return sign * (a - b) < 0

    pairs = list(zip(base["values"], new["values"]))
    wins = sum(better(n, b) for b, n in pairs)
    if (pairs and wins >= 0.9 * len(pairs)
            and better(new["median"], base["median"])
            and abs(new["median"] - base["median"])
            > base["q3"] - base["q1"]):
        return "improved"
    worse_by = sign * (new["median"] - base["median"])
    if worse_by > base["bound"] * abs(base["median"]):
        return "regressed"
    every_better = all(better(n, b) for n in new["values"]
                       for b in base["values"])
    spread = max(_relative_spread(base), _relative_spread(new))
    if spread > base["bound"] and not every_better:
        return "unresolved"
    return "unchanged"


def _change(base: float, new: float) -> str:
    if not base:
        return "n/a" if new else "+0.0%"
    return f"{(new - base) / abs(base):+.1%}"


def compare(base: dict, new: dict) -> "tuple[list[str], bool]":
    """Report lines, and whether any metric regressed."""
    lines = []
    for record, side in ((base, "base"), (new, "new")):
        stamp = record["stamp"]
        lines.append(f"{side}: sha {stamp['git_sha'][:12]}, "
                     f"{stamp['cpus']} CPUs, Python {stamp['python']}, "
                     f"N={stamp['runs']}, seed {stamp['seed']}, "
                     f"{stamp['seconds']} s/run")
    if base["stamp"]["seed"] != new["stamp"]["seed"]:
        lines.append("note: seeds differ, so faulty's counts may differ")
    regressed = False
    header = (f"{'workload':<12} {'metric':<16} {'base':>12} {'new':>12} "
              f"{'change':>8}  verdict")
    lines.append(header)
    for workload, base_data in base["workloads"].items():
        new_data = new["workloads"].get(workload)
        if new_data is None:
            lines.append(f"{workload:<12} missing from the new record")
            continue
        for name, base_entry in base_data["end_to_end"].items():
            new_entry = new_data["end_to_end"].get(name)
            if new_entry is None:
                lines.append(f"{workload:<12} {name:<16} missing")
                continue
            result = verdict(base_entry, new_entry)
            regressed = regressed or result == "regressed"
            lines.append(
                f"{workload:<12} {name:<16} "
                f"{base_entry['median']:>12.5g} {new_entry['median']:>12.5g} "
                f"{_change(base_entry['median'], new_entry['median']):>8}  "
                f"{result}")
    lines.append("")
    lines.append(f"{'workload':<12} {'count':<32} {'base':>14} {'new':>14}")
    for workload, base_data in base["workloads"].items():
        new_data = new["workloads"].get(workload)
        if new_data is None:
            continue
        for name in COUNT_METRICS:
            old = base_data["per_layer"].get(name, {}).get("value")
            now = new_data["per_layer"].get(name, {}).get("value")
            if old is None or now is None:
                continue
            status = ("identical" if old == now
                      else f"differs by {now - old:+.6g}")
            lines.append(f"{workload:<12} {name:<32} {old:>14.6g} "
                         f"{now:>14.6g}  {status}")
    return lines, regressed


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BASE.json NEW.json", file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        new = json.load(handle)
    lines, regressed = compare(base, new)
    print("\n".join(lines))
    return 1 if regressed else 0
