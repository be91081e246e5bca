"""Unchecked-line tracking: timestamps, conflicts, release/drop."""

import pytest

from repro.config import CacheConfig
from repro.memory import UncheckedLineTracker


def make_tracker(sets=4, ways=2):
    return UncheckedLineTracker(
        CacheConfig(sets * ways * 64, ways, hit_latency_cycles=1, mshrs=4)
    )


class TestTimestamps:
    def test_clean_line_has_no_timestamp(self):
        tracker = make_tracker()
        assert tracker.timestamp_of(0) is None

    def test_commit_write_stamps_line(self):
        tracker = make_tracker()
        tracker.commit_write(8, checkpoint_id=3)
        assert tracker.timestamp_of(0) == 3
        assert tracker.timestamp_of(40) == 3  # same line

    def test_needs_copy_first_touch(self):
        tracker = make_tracker()
        assert tracker.needs_copy(0, 1)

    def test_needs_copy_false_within_same_checkpoint(self):
        tracker = make_tracker()
        tracker.commit_write(0, 5)
        assert not tracker.needs_copy(8, 5)  # same line, same checkpoint

    def test_needs_copy_true_for_newer_checkpoint(self):
        tracker = make_tracker()
        tracker.commit_write(0, 5)
        assert tracker.needs_copy(0, 6)


class TestConflicts:
    def test_no_conflict_with_free_ways(self):
        tracker = make_tracker(ways=2)
        tracker.commit_write(0, 1)
        assert not tracker.would_conflict(256)  # 4 sets x 64B: 256 -> set 0

    def test_conflict_when_set_full(self):
        tracker = make_tracker(sets=4, ways=2)
        tracker.commit_write(0, 1)  # set 0
        tracker.commit_write(256, 1)  # set 0 (4 sets * 64B = 256 stride)
        assert tracker.would_conflict(512)  # third distinct line, set 0
        assert not tracker.would_conflict(64)  # set 1 free

    def test_existing_line_never_conflicts(self):
        tracker = make_tracker(sets=4, ways=2)
        tracker.commit_write(0, 1)
        tracker.commit_write(256, 1)
        assert not tracker.would_conflict(0)

    def test_commit_despite_conflict_raises(self):
        tracker = make_tracker(sets=4, ways=2)
        tracker.commit_write(0, 1)
        tracker.commit_write(256, 1)
        with pytest.raises(RuntimeError):
            tracker.commit_write(512, 1)

    def test_conflict_stat_via_record_write(self):
        tracker = make_tracker(sets=4, ways=2)
        tracker.commit_write(0, 1)
        tracker.commit_write(256, 1)
        assert tracker.would_conflict(512)
        # Asking records nothing: the line stays clean, the set full.
        assert tracker.timestamp_of(512) is None
        assert tracker.unchecked_lines() == 2
        assert tracker.would_conflict(512)


class TestReleaseAndDrop:
    def test_release_through(self):
        tracker = make_tracker()
        tracker.commit_write(0, 1)
        tracker.commit_write(64, 2)
        tracker.commit_write(128, 3)
        released = tracker.release_through(2)
        assert released == 2
        assert tracker.timestamp_of(0) is None
        assert tracker.timestamp_of(128) == 3

    def test_release_frees_set_capacity(self):
        tracker = make_tracker(sets=4, ways=2)
        tracker.commit_write(0, 1)
        tracker.commit_write(256, 1)
        assert tracker.would_conflict(512)
        tracker.release_through(1)
        assert not tracker.would_conflict(512)

    def test_drop_after_rollback(self):
        tracker = make_tracker()
        tracker.commit_write(0, 1)
        tracker.commit_write(64, 5)
        dropped = tracker.drop_after(1)
        assert dropped == 1
        assert tracker.timestamp_of(0) == 1
        assert tracker.timestamp_of(64) is None

    def test_clear(self):
        tracker = make_tracker()
        tracker.commit_write(0, 1)
        tracker.clear()
        assert tracker.unchecked_lines() == 0
        assert not tracker.would_conflict(0)

    def test_line_copy_stat(self):
        tracker = make_tracker()
        copies = []
        for address, checkpoint_id in ((0, 1), (8, 1), (0, 2)):
            copies.append(tracker.needs_copy(address, checkpoint_id))
            tracker.commit_write(address, checkpoint_id)
        # First touch, same line in the same checkpoint, newer checkpoint.
        assert copies == [True, False, True]
