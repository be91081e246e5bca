"""Load-store-log segments: capacity, recording, close semantics."""

import pytest

from repro.isa import ArchState, FunctionalUnit
from repro.isa.decode import UNIT_INDEX
from repro.lslog import (
    LINE_ENTRY_BYTES,
    LOAD_ENTRY_BYTES,
    LogSegment,
    RollbackGranularity,
    STORE_DETECT_BYTES,
    STORE_OLD_WORD_BYTES,
    SegmentCloseReason,
    SegmentFull,
)


def make_segment(granularity=RollbackGranularity.WORD, capacity=6144, seq=1):
    return LogSegment(
        seq=seq,
        granularity=granularity,
        capacity_bytes=capacity,
        start_state=ArchState(),
    )


class TestRecording:
    def test_load_recorded_in_order(self):
        segment = make_segment()
        segment.record_load(0, 11)
        segment.record_load(8, 22)
        assert segment.loads == [(0, 11), (8, 22)]
        assert segment.load_count == 2

    def test_store_word_granularity_keeps_old(self):
        segment = make_segment(RollbackGranularity.WORD)
        segment.record_store(16, new_value=5, old_value=3)
        assert segment.store_addrs == [16]
        assert segment.store_values == [5]
        assert segment.store_olds == [3]
        assert segment.rollback_entry_count == 1

    def test_store_line_granularity_keeps_line(self):
        segment = make_segment(RollbackGranularity.LINE)
        line = (0, tuple(range(8)))
        segment.record_store(0, 5, 3, line=line)
        segment.record_store(8, 6, 0, line=None)  # same line, no copy
        assert segment.lines == [line]
        assert segment.rollback_entry_count == 1
        assert segment.store_count == 2

    def test_detection_only_keeps_no_rollback_data(self):
        segment = make_segment(RollbackGranularity.NONE)
        segment.record_store(0, 5, 3)
        assert segment.store_olds == []
        assert segment.lines == []
        assert segment.rollback_entry_count == 0

    def test_instruction_histogram(self):
        segment = make_segment()
        alu, load = UNIT_INDEX[FunctionalUnit.INT_ALU], UNIT_INDEX[FunctionalUnit.LOAD]
        segment.record_instruction(alu, writes_register=True)
        segment.record_instruction(alu, writes_register=False)
        segment.record_instruction(load, writes_register=True)
        assert segment.instruction_count == 3
        assert segment.unit_counts[alu] == 2
        assert segment.unit_dest_counts[alu] == 1
        assert segment.unit_counts[load] == segment.unit_dest_counts[load] == 1
        assert sum(segment.unit_counts) == 3


class TestCapacity:
    def test_load_bytes_accounted(self):
        segment = make_segment()
        segment.record_load(0, 1)
        assert segment.detection_bytes == LOAD_ENTRY_BYTES

    def test_word_store_bytes(self):
        segment = make_segment(RollbackGranularity.WORD)
        segment.record_store(0, 1, 2)
        assert segment.detection_bytes == STORE_DETECT_BYTES
        assert segment.rollback_bytes == STORE_OLD_WORD_BYTES

    def test_line_store_bytes(self):
        segment = make_segment(RollbackGranularity.LINE)
        segment.record_store(0, 1, 2, line=(0, tuple([0] * 8)))
        assert segment.rollback_bytes == LINE_ENTRY_BYTES

    def test_load_overflow_raises(self):
        segment = make_segment(capacity=LOAD_ENTRY_BYTES * 2)
        segment.record_load(0, 1)
        segment.record_load(8, 2)
        with pytest.raises(SegmentFull):
            segment.record_load(16, 3)

    def test_store_overflow_raises(self):
        segment = make_segment(
            RollbackGranularity.WORD,
            capacity=STORE_DETECT_BYTES + STORE_OLD_WORD_BYTES,
        )
        segment.record_store(0, 1, 2)
        with pytest.raises(SegmentFull):
            segment.record_store(8, 1, 2)

    def test_fits_store_considers_line_copy(self):
        capacity = STORE_DETECT_BYTES + LINE_ENTRY_BYTES
        segment = make_segment(RollbackGranularity.LINE, capacity=capacity)
        assert segment.fits_store(needs_line_copy=True)
        segment.record_store(0, 1, 2, line=(0, tuple([0] * 8)))
        # Another store without a copy no longer fits (detection side full).
        assert not segment.fits_store(needs_line_copy=False)

    def test_detection_and_rollback_share_capacity(self):
        # The two indices grow towards each other (figure 6).
        segment = make_segment(RollbackGranularity.WORD, capacity=100)
        segment.record_load(0, 1)  # 16
        segment.record_store(8, 1, 2)  # 16 + 8
        segment.record_load(16, 1)  # 16
        segment.record_store(24, 1, 2)  # 16 + 8
        assert segment.bytes_used() == 80
        segment.record_load(32, 1)  # 96 <= 100 still fits
        with pytest.raises(SegmentFull):
            segment.record_load(40, 1)


class TestClose:
    def test_close_records_reason_and_state(self):
        segment = make_segment()
        end = ArchState()
        end.pc = 42
        segment.close(end, SegmentCloseReason.TARGET_LENGTH)
        assert segment.is_closed
        assert segment.end_state.pc == 42
        assert segment.close_reason is SegmentCloseReason.TARGET_LENGTH

    def test_double_close_rejected(self):
        segment = make_segment()
        segment.close(ArchState(), SegmentCloseReason.PROGRAM_END)
        with pytest.raises(RuntimeError):
            segment.close(ArchState(), SegmentCloseReason.PROGRAM_END)

    def test_not_closed_initially(self):
        assert not make_segment().is_closed
