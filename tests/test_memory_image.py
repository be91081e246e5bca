"""Memory image: word access, bounds, lines, snapshots."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import (
    LINE_BYTES,
    MASK64,
    MemoryAlignmentTrap,
    MemoryBoundsTrap,
    MemoryImage,
    WORDS_PER_LINE,
    line_address,
)


class TestWordAccess:
    def test_uninitialised_reads_zero(self):
        assert MemoryImage().load(64) == 0

    def test_store_load(self):
        mem = MemoryImage()
        mem.store(8, 123)
        assert mem.load(8) == 123

    def test_store_masks(self):
        mem = MemoryImage()
        mem.store(8, MASK64 + 2)
        assert mem.load(8) == 1

    def test_unaligned_load_traps(self):
        with pytest.raises(MemoryAlignmentTrap):
            MemoryImage().load(5)

    def test_unaligned_store_traps(self):
        with pytest.raises(MemoryAlignmentTrap):
            MemoryImage().store(9, 1)

    def test_out_of_bounds_traps(self):
        mem = MemoryImage(size=1024)
        with pytest.raises(MemoryBoundsTrap):
            mem.load(2048)
        with pytest.raises(MemoryBoundsTrap):
            mem.store(-8, 1)

    def test_floats(self):
        mem = MemoryImage()
        mem.store_float(16, 3.25)
        assert mem.load_float(16) == 3.25

    def test_bulk_words(self):
        mem = MemoryImage()
        mem.write_words(0, [1, 2, 3])
        assert mem.read_words(0, 3) == [1, 2, 3]

    def test_bulk_floats(self):
        mem = MemoryImage()
        mem.write_floats(64, [1.0, 2.0])
        assert mem.read_floats(64, 2) == [1.0, 2.0]


class TestLines:
    def test_line_address(self):
        assert line_address(0) == 0
        assert line_address(63) == 0
        assert line_address(64) == 64
        assert line_address(130) == 128

    def test_read_line_shape(self):
        mem = MemoryImage()
        mem.store(64, 11)
        mem.store(72, 22)
        line = mem.read_line(70)
        assert len(line) == WORDS_PER_LINE
        assert line[0] == 11 and line[1] == 22

    def test_write_line_restores(self):
        mem = MemoryImage()
        mem.store(128, 1)
        mem.store(136, 2)
        saved = mem.read_line(128)
        mem.store(128, 99)
        mem.store(144, 77)
        mem.write_line(128, saved)
        assert mem.load(128) == 1
        assert mem.load(136) == 2
        assert mem.load(144) == 0  # was zero in the saved copy

    @given(
        st.lists(
            st.integers(min_value=0, max_value=MASK64),
            min_size=WORDS_PER_LINE,
            max_size=WORDS_PER_LINE,
        )
    )
    def test_line_roundtrip(self, words):
        mem = MemoryImage()
        base = 4 * LINE_BYTES
        for i, word in enumerate(words):
            mem.store(base + i * 8, word)
        snapshot = mem.read_line(base)
        for i in range(WORDS_PER_LINE):
            mem.store(base + i * 8, 0xABCD)
        mem.write_line(base, snapshot)
        assert list(mem.read_line(base)) == words


class TestSnapshotsAndEquality:
    def test_snapshot_independent(self):
        mem = MemoryImage()
        mem.store(0, 5)
        snap = mem.snapshot()
        mem.store(0, 6)
        assert snap.load(0) == 5

    def test_equality_ignores_explicit_zeros(self):
        a, b = MemoryImage(), MemoryImage()
        a.store(8, 0)  # explicit zero == untouched
        assert a == b

    def test_equality_detects_difference(self):
        a, b = MemoryImage(), MemoryImage()
        a.store(8, 1)
        assert a != b

    def test_equality_checks_size(self):
        a, b = MemoryImage(size=1 << 12), MemoryImage(size=1 << 13)
        for mem in (a, b):
            mem.store(8, 1)
        assert a != b
        assert MemoryImage(size=1 << 12) != MemoryImage(size=1 << 13)

    def test_len_counts_nonzero_words(self):
        mem = MemoryImage()
        mem.store(0, 1)
        mem.store(8, 0)
        mem.store(16, 2)
        assert len(mem) == 2

    def test_iteration_sorted(self):
        mem = MemoryImage()
        mem.store(16, 2)
        mem.store(0, 1)
        assert list(mem) == [(0, 1), (16, 2)]
