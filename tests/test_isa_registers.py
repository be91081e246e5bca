"""Register-file semantics: masking, x0, flags, snapshots, bit flips."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import (
    MASK64,
    ArchState,
    NUM_FP_REGS,
    NUM_INT_REGS,
    Flag,
    RegisterCategory,
    RegisterFile,
    bits_to_float,
    float_to_bits,
    to_signed,
    to_unsigned,
)
from repro.isa.registers import F_BASE, FLAGS_SLOT, SLOT_COUNT, slot_bit


class TestIntRegisters:
    def test_initially_zero(self):
        regs = RegisterFile()
        assert all(regs.read_x(i) == 0 for i in range(NUM_INT_REGS))

    def test_write_read(self):
        regs = RegisterFile()
        regs.write_x(5, 1234)
        assert regs.read_x(5) == 1234

    def test_x0_hardwired_zero(self):
        regs = RegisterFile()
        regs.write_x(0, 999)
        assert regs.read_x(0) == 0

    def test_write_masks_to_64_bits(self):
        regs = RegisterFile()
        regs.write_x(1, 1 << 70)
        assert regs.read_x(1) == 0
        regs.write_x(1, MASK64 + 5)
        assert regs.read_x(1) == 4

    def test_negative_values_wrap(self):
        regs = RegisterFile()
        regs.write_x(1, -1)
        assert regs.read_x(1) == MASK64


class TestFpRegisters:
    def test_roundtrip(self):
        regs = RegisterFile()
        regs.write_f(3, 1.5)
        assert regs.read_f(3) == 1.5

    def test_bits_are_ieee754(self):
        regs = RegisterFile()
        regs.write_f(0, 1.0)
        assert regs.read_f_bits(0) == 0x3FF0000000000000

    def test_write_bits(self):
        regs = RegisterFile()
        regs.write_f_bits(2, 0x4000000000000000)
        assert regs.read_f(2) == 2.0

    @given(st.floats(allow_nan=False))
    def test_float_bits_roundtrip(self, value):
        assert bits_to_float(float_to_bits(value)) == value

    def test_nan_bits_preserved(self):
        regs = RegisterFile()
        pattern = 0x7FF8000000000123  # a payloaded NaN
        regs.write_f_bits(1, pattern)
        assert regs.read_f_bits(1) == pattern
        assert regs.read_f(1) != regs.read_f(1)  # NaN

    def test_nan_value_writes_canonicalize(self):
        # Arithmetic results canonicalize to the positive quiet NaN
        # (RISC-V style): the host FPU's NaN sign must never reach the
        # architectural state — x86 propagates the first operand's NaN
        # and CPython's specializing interpreter reorders operands
        # between cold and warm executions of the same expression.
        negative_nan = bits_to_float(0xFFF8000000000000)
        assert float_to_bits(negative_nan) == 0x7FF8000000000000
        assert float_to_bits(bits_to_float(0x7FF800000000BEEF)) == (
            0x7FF8000000000000
        )
        regs = RegisterFile()
        regs.write_f(1, negative_nan)
        assert regs.read_f_bits(1) == 0x7FF8000000000000
        # Raw bit moves (FMOV, FLDR) still preserve sign and payload.
        regs.write_f_bits(2, 0xFFF8000000000123)
        assert regs.read_f_bits(2) == 0xFFF8000000000123


class TestFlags:
    def test_set_and_read(self):
        regs = RegisterFile()
        regs.set_flags(n=True, z=False, c=True, v=False)
        assert regs.flag(Flag.N) and regs.flag(Flag.C)
        assert not regs.flag(Flag.Z) and not regs.flag(Flag.V)

    def test_overwrite(self):
        regs = RegisterFile()
        regs.set_flags(True, True, True, True)
        regs.set_flags(False, False, False, False)
        assert regs.flags == 0


class TestSnapshot:
    def test_snapshot_is_independent(self):
        regs = RegisterFile()
        regs.write_x(1, 10)
        snap = regs.snapshot()
        regs.write_x(1, 20)
        assert snap.read_x(1) == 10

    def test_restore(self):
        regs = RegisterFile()
        regs.write_x(1, 10)
        regs.write_f(1, 2.5)
        regs.set_flags(True, False, False, True)
        snap = regs.snapshot()
        regs.write_x(1, 99)
        regs.write_f(1, 9.0)
        regs.set_flags(False, False, False, False)
        regs.restore(snap)
        assert regs.read_x(1) == 10
        assert regs.read_f(1) == 2.5
        assert regs.flag(Flag.N) and regs.flag(Flag.V)

    def test_equality(self):
        a, b = RegisterFile(), RegisterFile()
        assert a == b
        a.write_x(3, 7)
        assert a != b


class TestFlipBit:
    """The one register flip, :meth:`RegisterFile.flip_slot`."""

    def test_flip_int(self):
        regs = RegisterFile()
        regs.flip_slot(2, 5)
        assert regs.read_x(2) == 32
        regs.flip_slot(2, 5)
        assert regs.read_x(2) == 0

    def test_flip_x0_discarded(self):
        regs = RegisterFile()
        regs.flip_slot(0, 3)
        assert regs.read_x(0) == 0

    def test_flip_float(self):
        regs = RegisterFile()
        regs.write_f(1, 1.0)
        regs.flip_slot(F_BASE + 1, 63)
        assert regs.read_f(1) == -1.0

    def test_flip_flags(self):
        regs = RegisterFile()
        regs.flip_slot(FLAGS_SLOT, int(Flag.Z))
        assert regs.flag(Flag.Z)

    def test_flags_take_the_bit_modulo_4(self):
        regs = RegisterFile()
        regs.flip_slot(FLAGS_SLOT, 4 + int(Flag.C))
        assert regs.flags == slot_bit(FLAGS_SLOT, int(Flag.C)) == 1 << Flag.C

    def test_flip_bit_wraps_modulo_64(self):
        regs = RegisterFile()
        regs.flip_slot(1, 64)  # == bit 0
        assert regs.read_x(1) == 1

    @given(
        st.integers(min_value=1, max_value=SLOT_COUNT - 1),
        st.integers(min_value=0, max_value=127),
    )
    def test_double_flip_is_identity(self, slot, bit):
        regs = RegisterFile()
        regs.write_slot(slot, 0b1010)
        before = regs.snapshot()
        regs.flip_slot(slot, bit)
        assert regs != before
        regs.flip_slot(slot, bit)
        assert regs == before


class TestArchStateFlipBit:
    @pytest.mark.parametrize(
        "category, index, slot",
        [
            (RegisterCategory.INT, 7, 7),
            (RegisterCategory.FLOAT, 3, F_BASE + 3),
            (RegisterCategory.FLAGS, 0, FLAGS_SLOT),
        ],
    )
    def test_register_categories_flip_their_slot(self, category, index, slot):
        state = ArchState()
        state.flip_bit(category, index, 6)
        expected = RegisterFile()
        expected.flip_slot(slot, 6)
        assert state.regs == expected
        assert state.pc == 0

    def test_misc_flips_the_pc(self):
        state = ArchState()
        state.flip_bit(RegisterCategory.MISC, 0, 17)  # bit modulo 16
        assert state.pc == 1 << 1
        assert state.regs == RegisterFile()


class TestSignConversions:
    @given(st.integers(min_value=0, max_value=MASK64))
    def test_signed_unsigned_roundtrip(self, value):
        assert to_unsigned(to_signed(value)) == value

    def test_to_signed_negative(self):
        assert to_signed(MASK64) == -1
        assert to_signed(1 << 63) == -(1 << 63)

    def test_to_signed_positive(self):
        assert to_signed(5) == 5
        assert to_signed((1 << 63) - 1) == (1 << 63) - 1

    @given(st.integers())
    def test_to_unsigned_in_range(self, value):
        assert 0 <= to_unsigned(value) <= MASK64

    def test_fp_register_count(self):
        regs = RegisterFile()
        assert len(regs.f) == NUM_FP_REGS
