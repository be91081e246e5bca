"""The per-PC decode table against the interpreter.

The main-core timing model, the log segments, the checkers and the
compiled tier read an instruction's unit, latencies, load/branch flags
and register slots from :func:`repro.isa.decode.decode_table` instead of
from each :class:`StepInfo`.  These tests check, for every PC the
interpreter retires in every built-in workload and every fuzz profile,
that the table, each field of the main-core row included, says exactly
what the interpreter reports.
"""

from __future__ import annotations

import gc

import pytest

from repro.cli import WORKLOAD_BUILDERS
from repro.config import CHECKER_FU_LATENCY, MAIN_FU_LATENCY
from repro.isa import ArchState, Executor, Opcode, assemble
from repro.isa.decode import (
    FLAGS_SLOT,
    NO_SLOT,
    SLOT_COUNT,
    UNIT_INDEX,
    UNITS,
    F_BASE,
    decode_table,
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
        reads = tuple(slot_of(tag) for tag in info.reads)
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
        assert row_reads == reads, where
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
