"""Common-mode fault demonstration.

The coverage argument of section IV-E rests on detection failing *only*
when main and checker suffer errors with the identical architectural
effect.  This module makes that concrete on the real machinery:

* :func:`inject_common_mode` corrupts the main core's state during a
  segment **and** applies the *same* corruption to the checker at the
  same instruction index — the checker then reproduces the wrong values
  exactly, every store matches the (wrong) log, the final states agree,
  and the error sails through undetected.
* :func:`inject_independent` applies different corruptions to each side,
  which is always detected.

Both are used by the test suite and the coverage example; they are the
executable counterpart of the analytic model's ``p_match``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cores.checker_core import CheckResult, CheckerCore
from ..isa import ArchState, Executor, MemoryImage, Program
from ..isa.decode import decode_table
from ..isa.registers import RegisterCategory
from ..lslog.ports import MainMemoryPort
from ..lslog.segment import LogSegment, RollbackGranularity, SegmentCloseReason
from ..memory.unchecked import UncheckedLineTracker
from ..config import CacheConfig, table1_config


@dataclass(frozen=True)
class Corruption:
    """One register bit flip at one dynamic instruction index."""

    instruction_index: int
    category: RegisterCategory = RegisterCategory.INT
    register: int = 1
    bit: int = 0

    def apply(self, state: ArchState) -> None:
        state.flip_bit(self.category, self.register, self.bit)


class _CheckerHook:
    """SegmentFaultHook applying one corruption during checking."""

    def __init__(self, corruption: Optional[Corruption]) -> None:
        self.corruption = corruption

    def before_instruction(self, state: ArchState, index: int) -> None:
        if self.corruption is not None and index == self.corruption.instruction_index:
            self.corruption.apply(state)

    def corrupt_load(self, op_index: int, address: int, value: int) -> int:
        return value

    def corrupt_store(self, op_index: int, address: int, value: int) -> int:
        return value


def _fill_corrupted_segment(
    program: Program, main_corruption: Optional[Corruption], budget: int = 100_000
) -> "tuple[LogSegment, MemoryImage]":
    """Run the program on a main core, corrupting it mid-segment."""
    memory = MemoryImage()
    tracker = UncheckedLineTracker(CacheConfig(32 * 1024, 4, 2, mshrs=4))
    port = MainMemoryPort(memory, tracker, RollbackGranularity.LINE)
    state = ArchState()
    segment = LogSegment(
        seq=1,
        granularity=RollbackGranularity.LINE,
        capacity_bytes=1 << 20,
        start_state=state.snapshot(),
    )
    port.segment = segment
    executor = Executor(program, state, port)
    table = decode_table(program)
    index = 0
    while not state.halted and index < budget:
        if main_corruption is not None and index == main_corruption.instruction_index:
            main_corruption.apply(state)
        pc = executor.step().pc_before
        segment.record_instruction(table.unit_index[pc], table.writes_register[pc])
        index += 1
    segment.close(state.snapshot(), SegmentCloseReason.PROGRAM_END)
    return segment, memory


def inject_common_mode(program: Program, corruption: Corruption) -> CheckResult:
    """Identical corruption on both sides: the undetectable case."""
    segment, _memory = _fill_corrupted_segment(program, corruption)
    checker = CheckerCore(table1_config().checker, program)
    return checker.check_segment(segment, hook=_CheckerHook(corruption))


def inject_independent(
    program: Program,
    main_corruption: Corruption,
    checker_corruption: Optional[Corruption] = None,
) -> CheckResult:
    """Different (or one-sided) corruption: the detected case."""
    segment, _memory = _fill_corrupted_segment(program, main_corruption)
    checker = CheckerCore(table1_config().checker, program)
    return checker.check_segment(segment, hook=_CheckerHook(checker_corruption))
