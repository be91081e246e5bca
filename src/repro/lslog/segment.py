"""Load-store-log segments (figure 1 / figure 6 of the paper).

One :class:`LogSegment` corresponds to one run-time segment of main-core
execution, i.e. one checkpoint region, checked by one checker core.  The
main core appends *detection* entries in program order:

* every load's ``(virtual address, loaded value)``,
* every store's ``(virtual address, new value)``.

Because main and checker execute the same committed instruction sequence,
each side is a FIFO queue for the checker ("each segment of the load-store
log acts as a queue", section II-B).

For *rollback* the two designs differ (section IV-D):

* **ParaMedic** (word granularity): every store also records the old word
  it overwrote; rollback walks stores in reverse undoing each.
* **ParaDox** (line granularity): only the *first* store to a cache line
  within the segment copies the old 64-byte line (identified via the L1
  timestamp, figure 6a); later stores to the same line need no copy
  (figure 6b).  Rollback restores whole lines, with physical addresses so
  no translation is needed.

Capacity is the 6 KiB SRAM per checker core (Table I).  Detection entries
fill from one end and rollback data from the other; "once these two
indices meet, or will meet following the commit of the next load or
store, a new checkpoint is created" (section IV-D).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..isa.decode import UNITS
from ..isa.state import ArchState

#: Bytes per logged quantity.  A word entry is an 8-byte value plus an
#: 8-byte (virtual) address; an old-value word adds another 8 bytes; a
#: line rollback entry is a 64-byte line plus its 8-byte physical address
#: (the ECC bits ride along for free, section IV-D).
LOAD_ENTRY_BYTES = 16
STORE_DETECT_BYTES = 16
STORE_OLD_WORD_BYTES = 8
LINE_ENTRY_BYTES = 72


class RollbackGranularity(enum.Enum):
    """How old values are kept for rollback."""

    WORD = "word"  # ParaMedic
    LINE = "line"  # ParaDox
    NONE = "none"  # detection-only [8]: no recovery data kept


class SegmentCloseReason(enum.Enum):
    """Why the main core ended a segment and took a checkpoint."""

    TARGET_LENGTH = "target"  # reached the AIMD target instruction count
    LOG_CAPACITY = "capacity"  # next memory op would not fit in the log
    EVICTION_CONFLICT = "eviction"  # unchecked-line conflict in the L1
    PROGRAM_END = "halt"
    EXTERNAL = "external"  # uncacheable/external op must check first


class SegmentFull(Exception):
    """The pending memory operation does not fit; close the segment first."""


@dataclass
class LogSegment:
    """One filled (or filling) log segment plus its checkpoint metadata."""

    seq: int
    granularity: RollbackGranularity
    capacity_bytes: int
    start_state: ArchState
    #: Sequence number of the checker core assigned to this segment; fig. 5
    #: stores the chosen ID at the end of the previous segment and the
    #: front of the new one for continuity and rollback chaining.
    checker_id: Optional[int] = None
    prev_checker_id: Optional[int] = None
    #: Main core that produced this segment (0 unless several mains
    #: share a checker pool — each keeps its own log and checkpoints).
    main_id: int = 0
    #: Main-core wall time at which the segment opened; a rollback to
    #: it wastes everything executed since.
    opened_ns: float = 0.0

    # Detection side (FIFO order).
    loads: List[Tuple[int, int]] = field(default_factory=list)
    store_addrs: List[int] = field(default_factory=list)
    store_values: List[int] = field(default_factory=list)
    # Rollback side.
    store_olds: List[int] = field(default_factory=list)  # WORD granularity
    lines: List[Tuple[int, Tuple[int, ...]]] = field(default_factory=list)  # LINE

    end_state: Optional[ArchState] = None
    instruction_count: int = 0
    #: Instructions per unit, indexed like :data:`repro.isa.decode.UNITS`.
    unit_counts: List[int] = field(default_factory=lambda: [0] * len(UNITS))
    #: Instructions per unit that write a register — the domain of the
    #: combinational fault model (no-effect instructions inject nothing).
    unit_dest_counts: List[int] = field(default_factory=lambda: [0] * len(UNITS))
    close_reason: Optional[SegmentCloseReason] = None
    detection_bytes: int = 0
    rollback_bytes: int = 0

    # -- capacity ------------------------------------------------------------------
    def bytes_used(self) -> int:
        return self.detection_bytes + self.rollback_bytes

    def fits_load(self) -> bool:
        return self.bytes_used() + LOAD_ENTRY_BYTES <= self.capacity_bytes

    def fits_store(self, needs_line_copy: bool) -> bool:
        cost = STORE_DETECT_BYTES
        if self.granularity is RollbackGranularity.WORD:
            cost += STORE_OLD_WORD_BYTES
        elif self.granularity is RollbackGranularity.LINE and needs_line_copy:
            cost += LINE_ENTRY_BYTES
        return self.bytes_used() + cost <= self.capacity_bytes

    # -- recording (main core side) ----------------------------------------------------
    def record_load(self, address: int, value: int) -> None:
        if not self.fits_load():
            raise SegmentFull
        self.loads.append((address, value))
        self.detection_bytes += LOAD_ENTRY_BYTES

    def record_store(
        self,
        address: int,
        new_value: int,
        old_value: int,
        line: Optional[Tuple[int, Tuple[int, ...]]] = None,
    ) -> None:
        """Record a store; ``line`` is the old-line copy if one is needed."""
        if not self.fits_store(needs_line_copy=line is not None):
            raise SegmentFull
        self.store_addrs.append(address)
        self.store_values.append(new_value)
        self.detection_bytes += STORE_DETECT_BYTES
        if self.granularity is RollbackGranularity.WORD:
            self.store_olds.append(old_value)
            self.rollback_bytes += STORE_OLD_WORD_BYTES
        elif self.granularity is RollbackGranularity.LINE and line is not None:
            self.lines.append(line)
            self.rollback_bytes += LINE_ENTRY_BYTES

    def record_instruction(self, unit: int, writes_register: bool = True) -> None:
        """Count one retired instruction of unit index ``unit``."""
        self.instruction_count += 1
        self.unit_counts[unit] += 1
        if writes_register:
            self.unit_dest_counts[unit] += 1

    def close(self, end_state: ArchState, reason: SegmentCloseReason) -> None:
        if self.end_state is not None:
            raise RuntimeError(f"segment {self.seq} closed twice")
        self.end_state = end_state
        self.close_reason = reason

    @property
    def is_closed(self) -> bool:
        return self.end_state is not None

    @property
    def store_count(self) -> int:
        return len(self.store_addrs)

    @property
    def load_count(self) -> int:
        return len(self.loads)

    @property
    def rollback_entry_count(self) -> int:
        """Entries a rollback walk must restore (words vs lines)."""
        if self.granularity is RollbackGranularity.WORD:
            return len(self.store_olds)
        if self.granularity is RollbackGranularity.LINE:
            return len(self.lines)
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LogSegment(seq={self.seq}, inst={self.instruction_count}, "
            f"loads={self.load_count}, stores={self.store_count}, "
            f"bytes={self.bytes_used()}/{self.capacity_bytes}, "
            f"reason={self.close_reason and self.close_reason.value})"
        )
