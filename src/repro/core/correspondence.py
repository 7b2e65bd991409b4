"""Cache-correspondence accounting.

Dynamically-scheduled nodes probe their caches at issue time but update
them only at commit, so the issue-time outcome can disagree with the
canonical commit-order outcome (paper Section 4.1, Figure 4):

* **false hit** — hit at issue, canonical miss at commit.  The owner must
  issue a *reparative broadcast* at commit; a non-owner must squash the
  broadcast the owner sends (nobody local is waiting for it).
* **false miss** — miss at issue, canonical hit at commit.  The paper
  assigns the one real miss of a line sequence to whichever access
  actually fetched it; DCUB merging realizes this (one fetch per
  in-flight line), and the tracker's debt counters keep broadcast
  production exactly equal to canonical-miss consumption.

Per line the tracker maintains, at the owner, ``sent - canonical_misses``
(settled by sending a late broadcast whenever a canonical miss commits
unfunded) and, at non-owners, outstanding issue-time BSHR waits (a
canonical miss either consumes a wait credit or schedules a BSHR
discard).
"""

from __future__ import annotations


class CorrespondenceStats:
    """Counters for Table 3 and the ablation study."""

    __slots__ = ("true_hits", "true_misses", "false_hits", "false_misses",
                 "reparative_broadcasts", "scheduled_discards")

    def __init__(self):
        self.true_hits = 0
        self.true_misses = 0
        self.false_hits = 0
        self.false_misses = 0
        self.reparative_broadcasts = 0
        self.scheduled_discards = 0


class CorrespondenceTracker:
    """Per-node reconciliation state."""

    def __init__(self):
        self.stats = CorrespondenceStats()
        # Owner side: broadcasts sent minus canonical misses, per line.
        self._broadcast_credit: "dict[int, int]" = {}
        # Non-owner side: issue-time BSHR waits not yet matched to a
        # canonical miss, per line.
        self._wait_credit: "dict[int, int]" = {}

    # ------------------------------------------------------------------
    # Classification (loads that probed the cache at issue).
    # ------------------------------------------------------------------
    def classify(self, issue_hit: bool, canonical_hit: bool) -> str:
        """Record and name the issue/commit agreement for one load."""
        if issue_hit and canonical_hit:
            self.stats.true_hits += 1
            return "true_hit"
        if not issue_hit and not canonical_hit:
            self.stats.true_misses += 1
            return "true_miss"
        if issue_hit:
            self.stats.false_hits += 1
            return "false_hit"
        self.stats.false_misses += 1
        return "false_miss"

    # ------------------------------------------------------------------
    # Owner-side broadcast debt.
    # ------------------------------------------------------------------
    def note_broadcast_sent(self, line: int) -> None:
        """An eager (issue-time) broadcast of ``line`` went out."""
        self._broadcast_credit[line] = self._broadcast_credit.get(line, 0) + 1

    def settle_canonical_miss_owner(self, line: int) -> bool:
        """A canonical miss of an owned line committed.  Returns True when
        a reparative broadcast must be sent now (no eager send funded it).
        """
        credit = self._broadcast_credit.get(line, 0)
        if credit > 0:
            if credit == 1:
                del self._broadcast_credit[line]
            else:
                self._broadcast_credit[line] = credit - 1
            return False
        self.stats.reparative_broadcasts += 1
        return True

    # ------------------------------------------------------------------
    # Non-owner-side wait credit.
    # ------------------------------------------------------------------
    def note_bshr_wait(self, line: int) -> None:
        """An issue-time BSHR wait was allocated for ``line``."""
        self._wait_credit[line] = self._wait_credit.get(line, 0) + 1

    def settle_canonical_miss_nonowner(self, line: int) -> bool:
        """A canonical miss of an unowned line committed.  Returns True
        when the matching broadcast has no local consumer and must be
        squashed on arrival."""
        credit = self._wait_credit.get(line, 0)
        if credit > 0:
            if credit == 1:
                del self._wait_credit[line]
            else:
                self._wait_credit[line] = credit - 1
            return False
        self.stats.scheduled_discards += 1
        return True

    def unmatched_waits(self) -> int:
        """Waits never matched by a canonical miss (should be zero at the
        end of a run; nonzero indicates a protocol accounting leak)."""
        return sum(self._wait_credit.values())
