"""The per-PC decode table against the interpreter.

The main-core timing model, the log segments, the checkers and the
compiled tier read an instruction's unit, latencies, load/branch flags
and register slots from :func:`repro.isa.decode.decode_table` instead of
from each :class:`StepInfo`.  These tests check, for every PC the
interpreter retires in every built-in workload and every fuzz profile,
that the table, each field of the main-core row included, says exactly
what the interpreter reports, and that the read slots are the operands
each opcode reads by the ISA's definition (:func:`expected_reads`,
written out here independently of :func:`repro.isa.decode.reads_write`).
"""

from __future__ import annotations

import bisect
import gc

import pytest

from repro.cli import WORKLOAD_BUILDERS
from repro.config import CHECKER_FU_LATENCY, MAIN_FU_LATENCY
from repro.isa import ArchState, Executor, Instruction, Opcode, assemble
from repro.isa.decode import (
    FLAGS_SLOT,
    NO_SLOT,
    SLOT_COUNT,
    UNIT_INDEX,
    UNITS,
    F_BASE,
    decode_table,
    reads_write,
)
from repro.isa.instructions import EXTERNAL_SYSCALLS
from repro.isa.registers import NUM_FP_REGS, NUM_INT_REGS
from repro.oracle.fuzzer import PROFILES, build_workload, generate_case
from repro.workloads import SPEC_ORDER, build_spec_workload

FUZZ_SEEDS = range(1, 9)


def slot_of(tag) -> int:
    """The flat slot of an interpreter register tag."""
    kind, index = tag
    return {"x": index, "f": F_BASE + index, "flags": FLAGS_SLOT}[kind]


def _group(operands, *mnemonics):
    return {Opcode[m.upper()]: operands for m in mnemonics}


#: The registers each opcode reads, in operand order, as a function of
#: the instruction: ``x`` names an integer slot, ``f`` a floating-point
#: one, and the flags have their own slot.
_READS = {
    **_group(
        lambda i: (i.rs1, i.rs2),
        "add", "sub", "and", "orr", "eor", "lsl", "lsr", "asr", "mul",
        "div", "rem", "cmp", "str",
    ),
    **_group(
        lambda i: (i.rs1,),
        "addi", "subi", "andi", "orri", "eori", "lsli", "lsri", "asri",
        "mov", "cmpi", "ldr", "fldr", "fcvt", "cbz", "cbnz", "jalr",
    ),
    **_group(
        lambda i: (F_BASE + i.rs1, F_BASE + i.rs2),
        "fadd", "fsub", "fmul", "fdiv", "fcmp",
    ),
    **_group(lambda i: (F_BASE + i.rs1,), "fmov", "fcvti"),
    **_group(lambda i: (i.rs1, F_BASE + i.rs2), "fstr"),
    **_group(lambda i: (FLAGS_SLOT,), "beq", "bne", "blt", "bge", "bgt", "ble"),
    # Every syscall takes its argument in x1.
    **_group(lambda i: (1,), "syscall"),
    **_group(lambda i: (), "movi", "fmovi", "b", "jal", "nop", "halt"),
}  # fmt: skip


def expected_reads(instr) -> tuple:
    """The register slots ``instr`` reads by the ISA's operand rules."""
    return _READS[instr.opcode](instr)


def test_every_opcode_reads_what_the_isa_says():
    # Opcodes no workload retires are covered here, with distinct
    # operand registers so a swapped or missing slot shows.
    assert set(_READS) == set(Opcode)
    for op in Opcode:
        instr = Instruction(op, rd=3, rs1=5, rs2=7, imm=1, target=0)
        assert reads_write(instr)[0] == expected_reads(instr), op


def _check_every_retired_pc(workload, budget: int = 200_000) -> int:
    """Step ``workload`` and compare the table at each new PC; return
    how many distinct PCs were checked."""
    table = decode_table(workload.program)
    state = ArchState()
    executor = Executor(workload.program, state, workload.create_memory())
    seen = set()
    while not state.halted and state.instret < budget:
        info = executor.step()
        pc = info.pc_before
        if pc in seen:
            continue
        seen.add(pc)
        instr = info.instruction
        unit = instr.unit
        write = NO_SLOT if info.dest is None else slot_of(info.dest)
        where = f"{workload.name} pc {pc} ({instr})"
        assert table.instructions[pc] is instr, where
        assert table.writes_register[pc] is (info.dest is not None), where
        assert table.unit_index[pc] == UNIT_INDEX[unit], where
        assert table.checker_latency[pc] == float(CHECKER_FU_LATENCY[unit.value]), where
        row = table.main_rows[pc]
        assert len(row) == 6, where
        latency, is_load, is_branch, row_reads, row_write, unit_name = row
        assert latency == float(MAIN_FU_LATENCY[unit.value]), where
        assert is_load is instr.is_load, where
        assert is_branch is instr.is_branch, where
        assert row_reads == expected_reads(instr), where
        assert row_write == write, where
        assert unit_name == unit.value, where
        external = instr.opcode is Opcode.SYSCALL and instr.imm in EXTERNAL_SYSCALLS
        assert (pc in table.external_pcs) is external, where
    return len(seen)


class TestAgainstTheInterpreter:
    @pytest.mark.parametrize("name", sorted(WORKLOAD_BUILDERS))
    def test_builtin_kernel(self, name):
        assert _check_every_retired_pc(WORKLOAD_BUILDERS[name](1.0)) > 10

    @pytest.mark.parametrize("name", SPEC_ORDER)
    def test_spec_proxy(self, name):
        assert _check_every_retired_pc(build_spec_workload(name, iterations=2)) > 10

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_fuzz_profile(self, profile):
        checked = sum(
            _check_every_retired_pc(build_workload(generate_case(seed, profile)))
            for seed in FUZZ_SEEDS
        )
        assert checked > 100


class TestReplayColumns:
    """The running sums compiled checker replay reads spans from."""

    @pytest.mark.parametrize("name", ["gobmk", "fuzz-mixed-7"])
    def test_running_sums_match_the_columns(self, name):
        if name == "gobmk":
            workload = build_spec_workload("gobmk", iterations=2)
        else:
            workload = build_workload(generate_case(7, "mixed"))
        table = decode_table(workload.program)
        size = len(table.instructions)
        cycles = table.checker_cycles_before
        assert len(cycles) == size + 1 and cycles[0] == 0
        for pc in range(size):
            assert cycles[pc + 1] - cycles[pc] == table.checker_latency[pc]
        for unit in [None, *range(len(UNITS))]:
            before, pcs = table.fault_columns(unit)
            counted = [
                pc
                for pc in range(size)
                if unit is None
                or (table.unit_index[pc] == unit and table.writes_register[pc])
            ]
            assert list(pcs) == counted, unit
            assert [before[pc] for pc in range(size + 1)] == [
                bisect.bisect_left(counted, pc) for pc in range(size + 1)
            ], unit


class TestSlots:
    def test_tag_round_trip(self):
        # x0..x31, then f0..f15, then the flags: one slot each, in order.
        tags = (
            [("x", i) for i in range(NUM_INT_REGS)]
            + [("f", i) for i in range(NUM_FP_REGS)]
            + [("flags", 0)]
        )
        assert [slot_of(tag) for tag in tags] == list(range(SLOT_COUNT))
        assert slot_of(("flags", 0)) == FLAGS_SLOT

    def test_units_indexed_in_enum_order(self):
        assert [UNIT_INDEX[unit] for unit in UNITS] == list(range(len(UNITS)))


class TestCache:
    def test_one_table_per_program_object(self):
        program = assemble("movi x1, 1\nhalt\n")
        assert decode_table(program) is decode_table(program)
        other = assemble("movi x1, 1\nhalt\n")
        assert decode_table(other) is not decode_table(program)

    def test_entry_dies_with_its_program(self):
        from repro.isa import decode

        program = assemble("movi x1, 1\nhalt\n")
        key = id(program)
        decode_table(program)
        assert key in decode._TABLES
        del program
        gc.collect()
        assert key not in decode._TABLES
