"""Cross-node SPSD lockstep checking over the event stream.

Every DataScalar node executes the identical dynamic instruction stream
and applies the identical canonical (commit-time) cache accesses, so two
per-node event sequences must be *identical across nodes*:

* the **commit sequence** — the ordered ``(seq, op)`` of committed
  instructions; and
* the **cache-decision sequence** — the ordered replacement decisions
  ``(line, store, hit, filled, evicted)`` of canonical data-cache
  accesses (the correspondence rules of paper Section 4.1 make cache
  state a pure function of the commit stream).

In a live DataScalar run the canonical accesses are computed once, by
:func:`repro.memory.canonical_outcomes`, and every node reads them from
the shared records, so the cache-decision half holds by construction;
what guards each node instead is the commit-time check of its resident
lines against each outcome (:func:`repro.memory.cache.apply_outcome`).
This module still checks both halves on any event log.

A violation used to surface, at best, as a commit-count mismatch or a
``ProtocolError`` at the very end of a run.  :func:`check_lockstep`
instead pinpoints the *first divergent event* — which node, which cycle,
what it did, and what the reference node did at the same position.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ProtocolError
from .events import EventKind, TraceEvent

#: Event kinds each lockstep invariant is computed from.
_COMMIT_ARGS = ("seq", "op")
_CACHE_ARGS = ("line", "store", "hit", "filled", "evicted")


class DivergenceError(ProtocolError):
    """Two nodes' lockstep event sequences diverged."""


@dataclass(slots=True)
class Divergence:
    """The first point at which a node left lockstep."""

    invariant: str
    index: int
    node: int
    cycle: int
    reference_node: int
    expected: "tuple | None"
    got: "tuple | None"

    def describe(self) -> str:
        if self.got is None:
            shape = (
                f"stream ended after {self.index} events "
                f"(reference node {self.reference_node} continues with "
                f"{self.expected})"
            )
        elif self.expected is None:
            shape = (
                f"extra event {self.got} past the reference node "
                f"{self.reference_node}'s {self.index}-event stream"
            )
        else:
            shape = f"did {self.got}, reference node did {self.expected}"
        return (
            f"node {self.node} diverged from SPSD lockstep at cycle "
            f"{self.cycle}: {self.invariant} event #{self.index} {shape}"
        )


def _streams(
    events: "list[TraceEvent]", kind: EventKind, arg_names: "tuple[str, ...]"
) -> "dict[int, list[tuple[int, tuple]]]":
    """Per-node ``(cycle, key)`` sequences for one event kind."""
    streams: "dict[int, list[tuple[int, tuple]]]" = {}
    for event in events:
        if event.kind is not kind:
            continue
        key = tuple(event.args.get(name) for name in arg_names)
        streams.setdefault(event.node, []).append((event.cycle, key))
    return streams


def _first_divergence(
    invariant: str, streams: "dict[int, list[tuple[int, tuple]]]"
) -> "Divergence | None":
    if len(streams) < 2:
        return None
    reference_node = min(streams)
    reference = streams[reference_node]
    found: "Divergence | None" = None
    for node in sorted(streams):
        if node == reference_node:
            continue
        stream = streams[node]
        candidate: "Divergence | None" = None
        for index in range(min(len(reference), len(stream))):
            if stream[index][1] == reference[index][1]:
                continue
            candidate = Divergence(
                invariant=invariant,
                index=index,
                node=node,
                cycle=stream[index][0],
                reference_node=reference_node,
                expected=reference[index][1],
                got=stream[index][1],
            )
            break
        else:
            if len(stream) == len(reference):
                continue
            index = min(len(reference), len(stream))
            longer = stream if len(stream) > len(reference) else reference
            candidate = Divergence(
                invariant=invariant,
                index=index,
                node=node,
                cycle=longer[index][0],
                reference_node=reference_node,
                expected=reference[index][1] if len(reference) > index else None,
                got=stream[index][1] if len(stream) > index else None,
            )
        if candidate is not None and (found is None or candidate.cycle < found.cycle):
            found = candidate
    return found


def check_lockstep(events: "list[TraceEvent]") -> "Divergence | None":
    """Scan a run's events for the first SPSD lockstep violation.

    Returns ``None`` when every node's commit and cache-decision
    sequences are identical; otherwise the earliest (by cycle)
    :class:`Divergence` across both invariants.
    """
    commit = _first_divergence(
        "commit", _streams(events, EventKind.COMMIT, _COMMIT_ARGS)
    )
    cache = _first_divergence(
        "cache-decision", _streams(events, EventKind.CACHE_COMMIT, _CACHE_ARGS)
    )
    if commit is None:
        return cache
    if cache is None:
        return commit
    return cache if cache.cycle < commit.cycle else commit


def assert_lockstep(events: "list[TraceEvent]") -> None:
    """Raise :class:`DivergenceError` describing the first divergence."""
    divergence = check_lockstep(events)
    if divergence is not None:
        raise DivergenceError(divergence.describe())
