"""Main-core logging port and checker replay port."""

import pytest

from repro.config import CacheConfig
from repro.isa import ArchState, MemoryImage
from repro.lslog import (
    CheckerReplayPort,
    LoadAddressMismatch,
    LogExhausted,
    LogSegment,
    MainMemoryPort,
    RollbackGranularity,
    StoreAddressMismatch,
    StoreMismatch,
    UncheckedConflictStall,
)
from repro.memory import UncheckedLineTracker


def make_port(granularity=RollbackGranularity.WORD, sets=4, ways=2, capacity=6144):
    memory = MemoryImage()
    tracker = UncheckedLineTracker(
        CacheConfig(sets * ways * 64, ways, hit_latency_cycles=1, mshrs=4)
    )
    port = MainMemoryPort(memory, tracker, granularity)
    port.segment = LogSegment(
        seq=1, granularity=granularity, capacity_bytes=capacity, start_state=ArchState()
    )
    return port


class TestMainPortLoads:
    def test_load_reads_memory_and_logs(self):
        port = make_port()
        port.memory.store(64, 42)
        assert port.load(64) == 42
        assert port.segment.loads == [(64, 42)]


class TestMainPortStores:
    def test_store_writes_memory_and_logs_old(self):
        port = make_port()
        port.memory.store(64, 1)
        port.store(64, 2)
        assert port.memory.load(64) == 2
        assert port.segment.store_olds == [1]

    def test_line_granularity_copies_first_touch_only(self):
        port = make_port(RollbackGranularity.LINE)
        port.memory.store(64, 7)
        port.store(64, 1)
        port.store(72, 2)  # same line, same checkpoint
        assert len(port.segment.lines) == 1
        line_addr, words = port.segment.lines[0]
        assert line_addr == 64
        assert words[0] == 7  # pre-store contents

    def test_conflict_raises_before_any_mutation(self):
        port = make_port(RollbackGranularity.LINE, sets=4, ways=2)
        port.store(0, 1)
        port.store(256, 1)
        before_log = len(port.segment.store_addrs)
        with pytest.raises(UncheckedConflictStall):
            port.store(512, 1)
        assert len(port.segment.store_addrs) == before_log
        assert port.memory.load(512) == 0
        assert port.tracker.timestamp_of(512) is None

    def test_detection_only_ignores_tracker(self):
        port = make_port(RollbackGranularity.NONE, sets=4, ways=2)
        # Way more same-set stores than the L1 could buffer: no conflicts.
        for i in range(10):
            port.store(i * 256, i)
        assert port.segment.store_count == 10


class TestCheckerReplayLoads:
    def make_checked_segment(self):
        port = make_port()
        port.memory.store(0, 10)
        port.memory.store(8, 20)
        port.load(0)
        port.load(8)
        port.store(16, 30)
        return port.segment

    def test_replay_in_order(self):
        replay = CheckerReplayPort(self.make_checked_segment())
        assert replay.load(0) == 10
        assert replay.load(8) == 20

    def test_address_mismatch_detected(self):
        replay = CheckerReplayPort(self.make_checked_segment())
        with pytest.raises(LoadAddressMismatch):
            replay.load(8)  # logged address is 0

    def test_exhaustion_detected(self):
        replay = CheckerReplayPort(self.make_checked_segment())
        replay.load(0)
        replay.load(8)
        with pytest.raises(LogExhausted):
            replay.load(16)

    def test_load_corruptor_applied(self):
        segment = self.make_checked_segment()
        seen = []

        def flip(op_index, address, value):
            seen.append((op_index, address, value))
            return value ^ 1

        replay = CheckerReplayPort(segment, load_corruptor=flip)
        assert replay.load(0) == 11
        assert replay.load(8) == 21
        assert seen == [(0, 0, 10), (1, 8, 20)]  # index, logged address, value


class TestCheckerReplayStores:
    def make_segment_with_store(self):
        port = make_port()
        port.store(16, 30)
        return port.segment

    def test_matching_store_passes(self):
        replay = CheckerReplayPort(self.make_segment_with_store())
        replay.store(16, 30)
        assert replay.fully_consumed

    def test_value_mismatch_detected(self):
        replay = CheckerReplayPort(self.make_segment_with_store())
        with pytest.raises(StoreMismatch):
            replay.store(16, 31)

    def test_address_mismatch_detected(self):
        replay = CheckerReplayPort(self.make_segment_with_store())
        with pytest.raises(StoreAddressMismatch):
            replay.store(24, 30)

    def test_store_exhaustion(self):
        replay = CheckerReplayPort(self.make_segment_with_store())
        replay.store(16, 30)
        with pytest.raises(LogExhausted):
            replay.store(24, 1)

    def test_store_corruptor_causes_mismatch(self):
        segment = self.make_segment_with_store()
        seen = []

        def flip(op_index, address, value):
            seen.append((op_index, address, value))
            return value ^ 4

        replay = CheckerReplayPort(segment, store_corruptor=flip)
        with pytest.raises(StoreMismatch):
            replay.store(16, 30)  # the *reference* got corrupted
        assert seen == [(0, 16, 30)]

    def test_not_fully_consumed_without_replay(self):
        replay = CheckerReplayPort(self.make_segment_with_store())
        assert not replay.fully_consumed

    def test_detection_carries_instruction_index_slot(self):
        replay = CheckerReplayPort(self.make_segment_with_store())
        try:
            replay.store(16, 99)
        except StoreMismatch as detection:
            assert detection.instruction_index is None  # set by the checker
            assert detection.channel.value == "store comparison"
