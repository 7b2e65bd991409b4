"""Unit tests for correspondence classification and debt accounting."""

from repro.core.correspondence import CorrespondenceTracker


def test_classification_matrix():
    tracker = CorrespondenceTracker()
    assert tracker.classify(True, True) == "true_hit"
    assert tracker.classify(False, False) == "true_miss"
    assert tracker.classify(True, False) == "false_hit"
    assert tracker.classify(False, True) == "false_miss"
    stats = tracker.stats
    assert (stats.true_hits, stats.true_misses,
            stats.false_hits, stats.false_misses) == (1, 1, 1, 1)


def test_owner_eager_broadcast_funds_canonical_miss():
    tracker = CorrespondenceTracker()
    tracker.note_broadcast_sent(0x100)
    assert tracker.settle_canonical_miss_owner(0x100) is False
    assert tracker.stats.reparative_broadcasts == 0


def test_owner_unfunded_canonical_miss_requires_reparative():
    tracker = CorrespondenceTracker()
    assert tracker.settle_canonical_miss_owner(0x100) is True
    assert tracker.stats.reparative_broadcasts == 1


def test_owner_credits_are_per_line():
    tracker = CorrespondenceTracker()
    tracker.note_broadcast_sent(0x100)
    assert tracker.settle_canonical_miss_owner(0x200) is True
    assert tracker.settle_canonical_miss_owner(0x100) is False


def test_owner_credits_stack():
    tracker = CorrespondenceTracker()
    tracker.note_broadcast_sent(0x100)
    tracker.note_broadcast_sent(0x100)
    assert tracker.settle_canonical_miss_owner(0x100) is False
    assert tracker.settle_canonical_miss_owner(0x100) is False
    assert tracker.settle_canonical_miss_owner(0x100) is True


def test_nonowner_wait_consumed_by_canonical_miss():
    tracker = CorrespondenceTracker()
    tracker.note_bshr_wait(0x100)
    assert tracker.settle_canonical_miss_nonowner(0x100) is False
    assert tracker.unmatched_waits() == 0


def test_nonowner_unfunded_canonical_miss_schedules_discard():
    tracker = CorrespondenceTracker()
    assert tracker.settle_canonical_miss_nonowner(0x100) is True
    assert tracker.stats.scheduled_discards == 1


def test_unmatched_waits_reported():
    tracker = CorrespondenceTracker()
    tracker.note_bshr_wait(0x100)
    tracker.note_bshr_wait(0x200)
    tracker.settle_canonical_miss_nonowner(0x100)
    assert tracker.unmatched_waits() == 1


def test_owner_and_nonowner_books_are_independent():
    tracker = CorrespondenceTracker()
    tracker.note_broadcast_sent(0x100)
    # A non-owner settle must not consume a broadcast credit.
    assert tracker.settle_canonical_miss_nonowner(0x100) is True
    assert tracker.settle_canonical_miss_owner(0x100) is False
