"""Tracking of unchecked dirty lines in the L1 data cache.

ParaMedic/ParaDox buffer stores whose segments have not yet been checked
in the L1 data cache ("unchecked values are buffered in the L1 cache until
checks are complete", section II-B).  Such a line cannot be evicted: an
eviction attempt stalls the core until checking catches up, and in
ParaDox additionally triggers a checkpoint-length reduction (section
IV-A).

Every L1 line also carries a *timestamp* — the checkpoint sequence number
of its last write.  ParaDox reuses this timestamp for line-granularity
rollback (section IV-D, figure 6): a store whose line timestamp is older
than the current checkpoint must first copy the old line into the log;
later stores to the same line within the same checkpoint need no copy.

This module tracks both pieces of state per line, within the geometry of
the L1D (sets x ways): a *conflict* arises when a write would need to
place an unchecked dirty line in a set whose ways are all already
occupied by unchecked dirty lines.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..config import CacheConfig


class UncheckedLineTracker:
    """Per-line unchecked/dirty state + checkpoint timestamps for one L1D."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.associativity
        self.line_shift = config.line_bytes.bit_length() - 1
        self.set_mask = self.num_sets - 1
        #: line address -> checkpoint sequence number of last write.
        self._timestamp: Dict[int, int] = {}
        #: per-set count of unchecked dirty lines.
        self._set_load: List[int] = [0] * self.num_sets

    # -- address helpers ---------------------------------------------------------
    def line_of(self, address: int) -> int:
        return address >> self.line_shift << self.line_shift

    def set_index(self, address: int) -> int:
        return (address >> self.line_shift) & self.set_mask

    # -- queries --------------------------------------------------------------------
    def timestamp_of(self, address: int) -> Optional[int]:
        """Checkpoint id of the line's last write, or None if clean."""
        return self._timestamp.get(self.line_of(address))

    def unchecked_lines(self) -> int:
        return len(self._timestamp)

    def would_conflict(self, address: int) -> bool:
        """Would writing this line exceed its set's ways with unchecked lines?"""
        line = self.line_of(address)
        if line in self._timestamp:
            return False
        return self._set_load[self.set_index(address)] >= self.ways

    def needs_copy(self, address: int, checkpoint_id: int) -> bool:
        """First write to this line within checkpoint ``checkpoint_id``?

        Figure 6: if the line's timestamp is older than the executing
        checkpoint, the old line must be copied into the log.
        """
        previous = self._timestamp.get(self.line_of(address))
        return previous is None or previous < checkpoint_id

    # -- updates -----------------------------------------------------------------------
    def commit_write(self, address: int, checkpoint_id: int) -> None:
        """Record a store that has passed the conflict and capacity checks.

        Callers first check :meth:`would_conflict` / :meth:`needs_copy`
        (and log capacity), then commit.  Raises if a conflicting write
        is committed.
        """
        line = self.line_of(address)
        previous = self._timestamp.get(line)
        if previous is None:
            set_index = self.set_index(address)
            if self._set_load[set_index] >= self.ways:
                raise RuntimeError(
                    f"committed write to line {line:#x} despite set conflict"
                )
            self._set_load[set_index] += 1
        self._timestamp[line] = checkpoint_id

    def release_through(self, checkpoint_id: int) -> int:
        """Mark all lines written at or before ``checkpoint_id`` as checked.

        Called when checking of a checkpoint completes; returns the number
        of lines released.
        """
        released = [
            line for line, stamp in self._timestamp.items() if stamp <= checkpoint_id
        ]
        for line in released:
            del self._timestamp[line]
            self._set_load[(line >> self.line_shift) & self.set_mask] -= 1
        return len(released)

    def drop_after(self, checkpoint_id: int) -> int:
        """Discard line state from checkpoints newer than ``checkpoint_id``.

        Called on rollback: the stores are undone, so the lines written by
        rolled-back checkpoints are no longer unchecked-dirty.
        """
        dropped = [
            line for line, stamp in self._timestamp.items() if stamp > checkpoint_id
        ]
        for line in dropped:
            del self._timestamp[line]
            self._set_load[(line >> self.line_shift) & self.set_mask] -= 1
        return len(dropped)

    def clear(self) -> None:
        self._timestamp.clear()
        self._set_load = [0] * self.num_sets

