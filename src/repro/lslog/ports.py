"""Data ports: how each core type touches memory.

The main core's port performs real loads and stores against the memory
image while filling the current log segment and maintaining the L1
unchecked-line state.  The checker core's port never touches memory: it
replays the log FIFO ("checkers do not actually have access to main
memory on the data side: their data cache is replaced by a load-store
log", section II-B) and raises a detection exception on any divergence.

Two control-flow exceptions are raised *before* any architectural state
changes, so the engine can handle the condition and re-execute the same
instruction:

* :class:`~repro.lslog.segment.SegmentFull` — the op does not fit in the
  current log segment; the engine must close the segment (take a
  checkpoint) and retry.
* :class:`UncheckedConflictStall` — the store would need to buffer an
  unchecked dirty line in a full L1 set; the engine must let checkers
  drain (and, in ParaDox, shrink the checkpoint target) and retry.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..isa.memory_image import MemoryImage, line_address
from ..memory.unchecked import UncheckedLineTracker
from .detection import (
    LoadAddressMismatch,
    LogExhausted,
    StoreAddressMismatch,
    StoreMismatch,
)
from .segment import LogSegment, RollbackGranularity, SegmentFull

#: Maps ``(operation index, logged address, logged value)`` to the value
#: a checker sees.
Corruptor = Callable[[int, int, int], int]


class UncheckedConflictStall(Exception):
    """A store hit an L1 set whose ways all hold unchecked dirty lines."""

    def __init__(self, address: int) -> None:
        super().__init__(f"unchecked-line conflict buffering {address:#x}")
        self.address = address


class MainMemoryPort:
    """Main-core data port: real memory + log fill + unchecked tracking."""

    def __init__(
        self,
        memory: MemoryImage,
        tracker: UncheckedLineTracker,
        granularity: RollbackGranularity,
    ) -> None:
        self.memory = memory
        self.tracker = tracker
        self.granularity = granularity
        #: The engine points this at the currently filling segment.
        self.segment: Optional[LogSegment] = None

    def load(self, address: int) -> int:
        value = self.memory.load(address)
        self.segment.record_load(address, value)  # may raise SegmentFull
        return value

    def store(self, address: int, value: int) -> None:
        segment = self.segment
        if self.granularity is RollbackGranularity.NONE:
            # Detection-only: stores are not buffered for rollback, so
            # there is no unchecked-line state to conflict with.
            if not segment.fits_store(needs_line_copy=False):
                raise SegmentFull
            segment.record_store(address, value, 0, None)
            self.memory.store(address, value)
            return
        if self.tracker.would_conflict(address):
            raise UncheckedConflictStall(address)
        line_copy = None
        if self.granularity is RollbackGranularity.LINE:
            if self.tracker.needs_copy(address, segment.seq):
                line_copy = (line_address(address), self.memory.read_line(address))
            if not segment.fits_store(needs_line_copy=line_copy is not None):
                raise SegmentFull
        else:
            if not segment.fits_store(needs_line_copy=False):
                raise SegmentFull
        old_value = self.memory.load(address)
        segment.record_store(address, value, old_value, line_copy)
        self.tracker.commit_write(address, segment.seq)
        self.memory.store(address, value)


class CheckerReplayPort:
    """Checker-core data port: replays one segment's log FIFOs.

    ``load_corruptor`` / ``store_corruptor``, when given, model the
    paper's *memory fault* injection ("errors in the load-store log...
    flipping one bit of the data carried by a memory operation"): they map
    ``(operation index, logged address, logged value) -> value seen by
    the checker``, so a fault model gets the logged operation it
    corrupts from the port that replays it.

    :meth:`replay` re-points the port at another segment, so a replay
    context keeps one port, and compiled code bound to its ``load`` and
    ``store`` stays valid from one check to the next.
    """

    def __init__(
        self,
        segment: Optional[LogSegment],
        load_corruptor: Optional[Corruptor] = None,
        store_corruptor: Optional[Corruptor] = None,
    ) -> None:
        self.replay(segment, load_corruptor, store_corruptor)

    def replay(
        self,
        segment: Optional[LogSegment],
        load_corruptor: Optional[Corruptor] = None,
        store_corruptor: Optional[Corruptor] = None,
    ) -> None:
        """Serve ``segment``'s log from its first operation (None: no
        segment, which lets the last one go)."""
        self.segment = segment
        self.load_index = 0
        self.store_index = 0
        self._load_corruptor = load_corruptor
        self._store_corruptor = store_corruptor

    def load(self, address: int) -> int:
        segment = self.segment
        if self.load_index >= len(segment.loads):
            raise LogExhausted(
                f"checker load #{self.load_index} beyond logged {len(segment.loads)}"
            )
        logged_address, value = segment.loads[self.load_index]
        index = self.load_index
        self.load_index += 1
        if logged_address != address:
            raise LoadAddressMismatch(
                f"load #{index}: checker address {address:#x} != logged "
                f"{logged_address:#x}"
            )
        if self._load_corruptor is not None:
            value = self._load_corruptor(index, logged_address, value)
        return value

    def store(self, address: int, value: int) -> None:
        segment = self.segment
        if self.store_index >= len(segment.store_addrs):
            raise LogExhausted(
                f"checker store #{self.store_index} beyond logged "
                f"{len(segment.store_addrs)}"
            )
        index = self.store_index
        logged_address = segment.store_addrs[index]
        logged_value = segment.store_values[index]
        self.store_index += 1
        if self._store_corruptor is not None:
            logged_value = self._store_corruptor(index, logged_address, logged_value)
        if logged_address != address:
            raise StoreAddressMismatch(
                f"store #{index}: checker address {address:#x} != logged "
                f"{logged_address:#x}"
            )
        if logged_value != value:
            raise StoreMismatch(
                f"store #{index} at {address:#x}: checker value {value:#x} != "
                f"logged {logged_value:#x}"
            )

    @property
    def fully_consumed(self) -> bool:
        """True when every logged operation was replayed (final check)."""
        segment = self.segment
        return self.load_index == len(segment.loads) and self.store_index == len(
            segment.store_addrs
        )
