"""Functional executor semantics, opcode by opcode."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import (
    ArchState,
    Executor,
    HaltTrap,
    InvalidPcTrap,
    MASK64,
    MemoryAlignmentTrap,
    MemoryImage,
    ProgramBuilder,
    StepInfo,
    Syscall,
    assemble,
    to_signed,
    to_unsigned,
)
from repro.isa.decode import decode_table


def run_program(source: str, memory=None, max_instructions=100_000):
    """Assemble and run to completion; return (state, memory)."""
    program = assemble(source)
    memory = memory if memory is not None else MemoryImage()
    state = ArchState()
    Executor(program, state, memory).run(max_instructions)
    return state, memory


def run_builder(build, memory=None, max_instructions=100_000):
    b = ProgramBuilder("t")
    build(b)
    memory = memory if memory is not None else MemoryImage()
    state = ArchState()
    Executor(b.build(), state, memory).run(max_instructions)
    return state, memory


class TestIntegerArithmetic:
    def test_add(self):
        state, _ = run_program("movi x1, 5\nmovi x2, 7\nadd x3, x1, x2\nhalt")
        assert state.regs.read_x(3) == 12

    def test_sub_wraps(self):
        state, _ = run_program("movi x1, 0\nmovi x2, 1\nsub x3, x1, x2\nhalt")
        assert state.regs.read_x(3) == MASK64

    def test_mul(self):
        state, _ = run_program("movi x1, 1000000\nmovi x2, 1000000\nmul x3, x1, x2\nhalt")
        assert state.regs.read_x(3) == 10**12

    def test_mul_wraps_64(self):
        state, _ = run_program(
            "movi x1, 0x100000000\nmovi x2, 0x100000000\nmul x3, x1, x2\nhalt"
        )
        assert state.regs.read_x(3) == 0

    def test_div_signed(self):
        state, _ = run_program("movi x1, -20\nmovi x2, 3\ndiv x3, x1, x2\nhalt")
        assert to_signed(state.regs.read_x(3)) == -6

    def test_div_by_zero_all_ones(self):
        state, _ = run_program("movi x1, 42\nmovi x2, 0\ndiv x3, x1, x2\nhalt")
        assert state.regs.read_x(3) == MASK64

    def test_rem(self):
        state, _ = run_program("movi x1, -20\nmovi x2, 3\nrem x3, x1, x2\nhalt")
        assert to_signed(state.regs.read_x(3)) == -2

    def test_rem_by_zero_returns_dividend(self):
        state, _ = run_program("movi x1, 42\nmovi x2, 0\nrem x3, x1, x2\nhalt")
        assert state.regs.read_x(3) == 42

    def test_logic_ops(self):
        state, _ = run_program(
            "movi x1, 0b1100\nmovi x2, 0b1010\n"
            "and x3, x1, x2\norr x4, x1, x2\neor x5, x1, x2\nhalt"
        )
        assert state.regs.read_x(3) == 0b1000
        assert state.regs.read_x(4) == 0b1110
        assert state.regs.read_x(5) == 0b0110

    def test_shifts(self):
        state, _ = run_program(
            "movi x1, 1\nlsli x2, x1, 10\nlsri x3, x2, 3\nmovi x4, -8\nasri x5, x4, 1\nhalt"
        )
        assert state.regs.read_x(2) == 1024
        assert state.regs.read_x(3) == 128
        assert to_signed(state.regs.read_x(5)) == -4

    def test_shift_amount_masked_to_6_bits(self):
        state, _ = run_program("movi x1, 1\nmovi x2, 65\nlsl x3, x1, x2\nhalt")
        assert state.regs.read_x(3) == 2  # 65 & 63 == 1

    def test_immediates(self):
        state, _ = run_program("movi x1, 100\naddi x2, x1, -1\nsubi x3, x1, 50\nhalt")
        assert state.regs.read_x(2) == 99
        assert state.regs.read_x(3) == 50

    def test_mov(self):
        state, _ = run_program("movi x1, 77\nmov x2, x1\nhalt")
        assert state.regs.read_x(2) == 77

    @given(st.integers(min_value=0, max_value=MASK64), st.integers(min_value=0, max_value=MASK64))
    def test_add_matches_python(self, a, b):
        def build(p):
            p.movi(1, a).movi(2, b).add(3, 1, 2).halt()

        state, _ = run_builder(build)
        assert state.regs.read_x(3) == (a + b) & MASK64

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1), st.integers(min_value=1, max_value=2**62))
    def test_div_matches_c_semantics(self, a, b):
        def build(p):
            p.movi(1, a).movi(2, b).div(3, 1, 2).rem(4, 1, 2).halt()

        state, _ = run_builder(build)
        quotient = to_signed(state.regs.read_x(3))
        remainder = to_signed(state.regs.read_x(4))
        # C-style truncation towards zero.
        expected_q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            expected_q = -expected_q
        assert quotient == expected_q
        assert quotient * b + remainder == a


class TestFloatingPoint:
    def test_fadd_fsub(self):
        state, _ = run_program("fmovi f1, 1.5\nfmovi f2, 0.25\nfadd f3, f1, f2\nfsub f4, f1, f2\nhalt")
        assert state.regs.read_f(3) == 1.75
        assert state.regs.read_f(4) == 1.25

    def test_fmul_fdiv(self):
        state, _ = run_program("fmovi f1, 3.0\nfmovi f2, 2.0\nfmul f3, f1, f2\nfdiv f4, f1, f2\nhalt")
        assert state.regs.read_f(3) == 6.0
        assert state.regs.read_f(4) == 1.5

    def test_fdiv_by_zero_is_inf(self):
        state, _ = run_program("fmovi f1, 1.0\nfmovi f2, 0.0\nfdiv f3, f1, f2\nhalt")
        assert state.regs.read_f(3) == float("inf")

    def test_fdiv_zero_by_zero_is_nan(self):
        state, _ = run_program("fmovi f1, 0.0\nfmovi f2, 0.0\nfdiv f3, f1, f2\nhalt")
        assert state.regs.read_f(3) != state.regs.read_f(3)

    def test_fcvt_int_to_float(self):
        state, _ = run_program("movi x1, -7\nfcvt f1, x1\nhalt")
        assert state.regs.read_f(1) == -7.0

    def test_fcvti_truncates(self):
        state, _ = run_program("fmovi f1, 2.9\nfcvti x1, f1\nfmovi f2, -2.9\nfcvti x2, f2\nhalt")
        assert state.regs.read_x(1) == 2
        assert to_signed(state.regs.read_x(2)) == -2

    def test_fcvti_nan_is_zero(self):
        state, _ = run_program(
            "fmovi f1, 0.0\nfmovi f2, 0.0\nfdiv f3, f1, f2\nfcvti x1, f3\nhalt"
        )
        assert state.regs.read_x(1) == 0

    def test_fcvti_saturates(self):
        state, _ = run_program("fmovi f1, 1e300\nfcvti x1, f1\nhalt")
        assert state.regs.read_x(1) == (1 << 63) - 1

    def test_fmov(self):
        state, _ = run_program("fmovi f1, 4.5\nfmov f2, f1\nhalt")
        assert state.regs.read_f(2) == 4.5


class TestCompareAndBranch:
    def test_beq_taken(self):
        state, _ = run_program(
            "movi x1, 5\nmovi x2, 5\ncmp x1, x2\nbeq yes\nmovi x3, 1\nhalt\nyes:\nmovi x3, 2\nhalt"
        )
        assert state.regs.read_x(3) == 2

    def test_bne_taken(self):
        state, _ = run_program(
            "movi x1, 5\nmovi x2, 6\ncmp x1, x2\nbne yes\nmovi x3, 1\nhalt\nyes:\nmovi x3, 2\nhalt"
        )
        assert state.regs.read_x(3) == 2

    @pytest.mark.parametrize(
        "a,b,op,taken",
        [
            (1, 2, "blt", True),
            (2, 1, "blt", False),
            (-1, 1, "blt", True),  # signed comparison
            (2, 2, "bge", True),
            (1, 2, "bge", False),
            (3, 2, "bgt", True),
            (2, 2, "bgt", False),
            (2, 2, "ble", True),
            (3, 2, "ble", False),
            (-5, -4, "blt", True),
        ],
    )
    def test_signed_conditions(self, a, b, op, taken):
        state, _ = run_program(
            f"movi x1, {a}\nmovi x2, {b}\ncmp x1, x2\n{op} yes\n"
            "movi x3, 1\nhalt\nyes:\nmovi x3, 2\nhalt"
        )
        assert state.regs.read_x(3) == (2 if taken else 1)

    def test_cmpi(self):
        state, _ = run_program(
            "movi x1, 10\ncmpi x1, 10\nbeq yes\nmovi x3, 1\nhalt\nyes:\nmovi x3, 2\nhalt"
        )
        assert state.regs.read_x(3) == 2

    def test_fcmp(self):
        state, _ = run_program(
            "fmovi f1, 1.0\nfmovi f2, 2.0\nfcmp f1, f2\nblt yes\n"
            "movi x3, 1\nhalt\nyes:\nmovi x3, 2\nhalt"
        )
        assert state.regs.read_x(3) == 2

    def test_cbz_cbnz(self):
        state, _ = run_program(
            "movi x1, 0\ncbz x1, a\nhalt\na:\nmovi x2, 1\ncbnz x2, b\nhalt\nb:\nmovi x3, 9\nhalt"
        )
        assert state.regs.read_x(3) == 9

    def test_loop_counts(self):
        state, _ = run_program(
            "movi x1, 0\nmovi x2, 10\nloop:\naddi x1, x1, 1\ncmp x1, x2\nblt loop\nhalt"
        )
        assert state.regs.read_x(1) == 10

    def test_uncond_branch(self):
        state, _ = run_program("b skip\nmovi x1, 1\nskip:\nmovi x2, 2\nhalt")
        assert state.regs.read_x(1) == 0
        assert state.regs.read_x(2) == 2


class TestCallsAndJumps:
    def test_jal_links(self):
        state, _ = run_program("jal x30, func\nhalt\nfunc:\nmovi x1, 5\njalr x30\n")
        assert state.regs.read_x(1) == 5
        assert state.halted

    def test_nested_calls_via_builder(self):
        def build(p):
            p.call("outer").halt()
            p.label("outer")
            p.mov(10, 30)  # save link
            p.call("inner")
            p.mov(30, 10)
            p.ret()
            p.label("inner")
            p.movi(1, 42)
            p.ret()

        state, _ = run_builder(build)
        assert state.regs.read_x(1) == 42
        assert state.halted


class TestMemoryInstructions:
    def test_store_load_roundtrip(self):
        state, mem = run_program("movi x1, 64\nmovi x2, 777\nstr x2, [x1]\nldr x3, [x1]\nhalt")
        assert state.regs.read_x(3) == 777
        assert mem.load(64) == 777

    def test_offset_addressing(self):
        state, mem = run_program("movi x1, 128\nmovi x2, 5\nstr x2, [x1, 24]\nhalt")
        assert mem.load(152) == 5

    def test_float_store_load(self):
        state, mem = run_program("movi x1, 256\nfmovi f1, 2.75\nfstr f1, [x1]\nfldr f2, [x1]\nhalt")
        assert state.regs.read_f(2) == 2.75
        assert mem.load_float(256) == 2.75

    def test_unaligned_traps(self):
        program = assemble("movi x1, 3\nldr x2, [x1]\nhalt")
        state = ArchState()
        executor = Executor(program, state, MemoryImage())
        with pytest.raises(MemoryAlignmentTrap):
            executor.run(10)


class TestControlAndSystem:
    def test_halt_sets_flag(self):
        state, _ = run_program("halt")
        assert state.halted
        assert state.instret == 1

    def test_stepping_halted_raises(self):
        program = assemble("halt")
        state = ArchState()
        executor = Executor(program, state, MemoryImage())
        executor.run(10)
        with pytest.raises(HaltTrap):
            executor.step()

    def test_invalid_pc_traps(self):
        program = assemble("movi x1, 1")  # falls off the end
        state = ArchState()
        executor = Executor(program, state, MemoryImage())
        executor.step()
        with pytest.raises(InvalidPcTrap):
            executor.step()

    def test_syscall_exit(self):
        state, _ = run_program(f"syscall {int(Syscall.EXIT)}")
        assert state.halted

    def test_syscall_print_int(self):
        # Output is stamped with instret *before* the syscall retires.
        state, _ = run_program(f"movi x1, -3\nsyscall {int(Syscall.PRINT_INT)}\nhalt")
        assert state.output == [(1, "-3")]

    def test_syscall_print_float(self):
        state, _ = run_program(f"fmovi f1, 0.5\nsyscall {int(Syscall.PRINT_FLOAT)}\nhalt")
        assert state.output == [(1, "0.5")]

    def test_syscall_instret(self):
        state, _ = run_program(f"nop\nnop\nsyscall {int(Syscall.GET_INSTRET)}\nhalt")
        assert state.regs.read_x(1) == 2

    def test_unknown_syscall_is_nop(self):
        state, _ = run_program("syscall 99\nmovi x2, 1\nhalt")
        assert state.regs.read_x(2) == 1

    def test_instret_counts(self):
        state, _ = run_program("nop\nnop\nnop\nhalt")
        assert state.instret == 4

    def test_run_budget(self):
        program = assemble("loop:\nb loop")
        state = ArchState()
        executor = Executor(program, state, MemoryImage())
        retired = executor.run(100)
        assert retired == 100
        assert not state.halted


class TestStepInfo:
    def test_only_run_facts(self):
        assert StepInfo.__slots__ == ("pc_before", "pc_after", "address", "taken")

    def test_reads_and_write_slot(self):
        program = assemble("movi x1, 1\nmovi x2, 2\nadd x3, x1, x2\nhalt")
        state = ArchState()
        executor = Executor(program, state, MemoryImage())
        executor.step()
        executor.step()
        info = executor.step()
        assert (info.pc_before, info.pc_after) == (2, 3)
        assert info.address is None
        # The registers an instruction reads and writes are static: the
        # decode table's row for the PC holds them as slots.
        row = decode_table(program).main_rows[info.pc_before]
        assert row[3] == (1, 2) and row[4] == 3

    def test_load_info_has_address(self):
        program = assemble("movi x1, 64\nldr x2, [x1, 8]\nhalt")
        state = ArchState()
        executor = Executor(program, state, MemoryImage())
        executor.step()
        info = executor.step()
        assert info.address == 72
        assert program.instructions[info.pc_before].is_load

    def test_branch_info_taken(self):
        program = assemble("movi x1, 0\ncbz x1, t\nnop\nt:\nhalt")
        state = ArchState()
        executor = Executor(program, state, MemoryImage())
        executor.step()
        info = executor.step()
        assert info.taken is True
        assert info.pc_after == 3


class TestPopcountProperty:
    @given(st.integers(min_value=0, max_value=MASK64))
    def test_kernighan_popcount_matches_python(self, value):
        def build(p):
            p.movi(1, value)
            p.movi(2, 0)
            p.label("loop")
            p.cbz(1, "done")
            p.subi(3, 1, 1)
            p.and_(1, 1, 3)
            p.addi(2, 2, 1)
            p.b("loop")
            p.label("done")
            p.halt()

        state, _ = run_builder(build)
        assert state.regs.read_x(2) == bin(value).count("1")
