"""Compiled superblock tier: discovery, bit-identity, invalidation.

The contract under test: running any workload through the tier
(``golden_run(jit=True)``, ``EngineOptions.jit``, or the oracle's
``use_jit``) is *bit-identical* to pure interpretation — same final
architectural state, same retired-instruction count, same timing, same
telemetry-visible bookkeeping.  The cache invalidation protocol (DVFS
voltage moves drop bound blocks, segment turnover rebinds the recorder)
and the structural exclusion of fault-injection points (no tier exists
under a main-core injector) are pinned explicitly.
"""

from __future__ import annotations

import signal
import time
import types

import pytest

from repro.core import ParaDoxSystem
from repro.faults.injector import default_injector
from repro.isa import ArchState, MemoryImage, Opcode, assemble
from repro.isa.instructions import BRANCH_OPCODES
from repro.jit import (
    COMPILABLE_OPCODES,
    MAX_BLOCK,
    MIN_BLOCK,
    SuperblockJit,
    superblock_length,
)
from repro.oracle.fuzzer import PROFILES, build_workload, generate_case, run_case
from repro.parallel import run_fanout
from repro.workloads import Workload, build_spec_workload, golden_run

# ---------------------------------------------------------------------------
# discovery


class TestSuperblockDiscovery:
    def test_branches_halt_syscall_are_not_compilable(self):
        assert not (COMPILABLE_OPCODES & set(BRANCH_OPCODES))
        assert Opcode.HALT not in COMPILABLE_OPCODES
        assert Opcode.SYSCALL not in COMPILABLE_OPCODES

    def test_out_of_range_pc(self):
        program = assemble("movi x1, 1\nmovi x2, 2\nmovi x3, 3\nhalt")
        assert superblock_length(program.instructions, -1) == 0
        assert superblock_length(program.instructions, 99) == 0

    def test_entry_on_branch_is_not_a_block(self):
        program = assemble("loop:\nmovi x1, 1\nmovi x2, 2\nmovi x3, 3\nb loop")
        assert superblock_length(program.instructions, 3) == 0

    def test_short_runs_stay_interpreted(self):
        program = assemble("movi x1, 1\nmovi x2, 2\nhalt")
        assert superblock_length(program.instructions, 0) == 0
        assert MIN_BLOCK == 3

    def test_region_stops_before_terminator(self):
        program = assemble(
            "movi x1, 1\nmovi x2, 2\nadd x3, x1, x2\nsub x4, x3, x1\nhalt"
        )
        assert superblock_length(program.instructions, 0) == 4

    def test_overlapping_entries(self):
        program = assemble(
            "movi x1, 1\nmovi x2, 2\nadd x3, x1, x2\nsub x4, x3, x1\n"
            "mul x5, x4, x2\nhalt"
        )
        assert superblock_length(program.instructions, 0) == 5
        assert superblock_length(program.instructions, 1) == 4
        assert superblock_length(program.instructions, 2) == 3

    def test_length_cap(self):
        source = "\n".join(f"movi x{1 + (i % 5)}, {i}" for i in range(200))
        program = assemble(source + "\nhalt")
        assert superblock_length(program.instructions, 0) == MAX_BLOCK

    def test_fuzz_blocks_never_contain_excluded_opcodes(self):
        for profile in PROFILES:
            program = build_workload(generate_case(11, profile)).program
            for pc in range(len(program.instructions)):
                length = superblock_length(program.instructions, pc)
                for instr in program.instructions[pc : pc + length]:
                    assert instr.opcode in COMPILABLE_OPCODES


# ---------------------------------------------------------------------------
# bit-identity: bare executor


def _assert_golden_identical(workload):
    interp = golden_run(workload)
    jitted = golden_run(workload, jit=True)
    assert jitted.instructions == interp.instructions
    assert jitted.state.regs.x == interp.state.regs.x
    assert jitted.state.regs.f == interp.state.regs.f
    assert jitted.state.regs.flags == interp.state.regs.flags
    assert jitted.state.pc == interp.state.pc
    assert jitted.output == interp.output
    assert jitted.memory.words == interp.memory.words


class TestExecutorIdentity:
    def test_kernel_workload(self, bitcount_small):
        _assert_golden_identical(bitcount_small)

    def test_spec_workload(self):
        _assert_golden_identical(build_spec_workload("bzip2", iterations=3))

    def test_x0_destination_discards_write_but_retires(self):
        program = assemble(
            "movi x1, 7\nmovi x2, 5\nadd x0, x1, x2\nsub x0, x1, x2\n"
            "mul x3, x1, x2\nadd x4, x3, x0\nhalt"
        )
        # The x0-dest instructions sit inside one compiled block.
        assert superblock_length(program.instructions, 0) == 6
        workload = Workload(name="x0", program=program, max_instructions=100)
        _assert_golden_identical(workload)
        golden = golden_run(workload, jit=True)
        assert golden.state.regs.x[0] == 0
        assert golden.instructions == 7

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_every_fuzz_profile(self, profile):
        for seed in (1, 7, 23):
            _assert_golden_identical(
                build_workload(generate_case(seed, profile))
            )


# ---------------------------------------------------------------------------
# bit-identity: full engine


def _result_fingerprint(result):
    return (
        result.wall_ns,
        result.instructions,
        result.instructions_executed,
        result.segments,
        result.outcome,
        result.mean_voltage,
        result.faults_injected,
        result.program_output,
        result.unit_mix,
        result.mean_checkpoint_length,
        result.final_checkpoint_target,
        result.voltage_trace,
        len(result.recoveries),
    )


class TestEngineIdentity:
    def test_error_free_run(self, bitcount_small):
        jitted = ParaDoxSystem().run(bitcount_small, seed=7)
        interp = ParaDoxSystem(jit=False).run(bitcount_small, seed=7)
        assert _result_fingerprint(jitted) == _result_fingerprint(interp)

    def test_dvs_run(self):
        workload = build_spec_workload("milc", iterations=12)
        jitted = ParaDoxSystem(dvs=True).run(workload, seed=3)
        interp = ParaDoxSystem(dvs=True, jit=False).run(workload, seed=3)
        assert jitted.voltage_trace  # DVS actually moved the supply
        assert _result_fingerprint(jitted) == _result_fingerprint(interp)

    def test_checker_fault_run_with_recoveries(self):
        workload = build_spec_workload("milc", iterations=12)
        from repro.config import table1_config

        config = table1_config().with_error_rate(1e-3, seed=3)
        jitted = ParaDoxSystem(config=config).run(workload, seed=3)
        interp = ParaDoxSystem(config=config, jit=False).run(workload, seed=3)
        assert jitted.faults_injected > 0
        assert jitted.recoveries  # rollbacks replayed through both paths
        assert _result_fingerprint(jitted) == _result_fingerprint(interp)


# ---------------------------------------------------------------------------
# oracle gate


class TestOracleEquivalence:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_differential_oracle_passes_with_jit(self, profile):
        report = run_case(generate_case(5, profile), use_jit=True)
        assert report.ok, report.divergence

    def test_escape_hatch_still_interprets(self):
        report = run_case(generate_case(5, "mixed"), use_jit=False)
        assert report.ok


# ---------------------------------------------------------------------------
# cache invalidation protocol


def _bare_tier(workload):
    state = ArchState()
    memory = workload.create_memory()
    return SuperblockJit(workload.program, state, memory), state


class TestInvalidation:
    def test_voltage_move_drops_bound_blocks(self, bitcount_small):
        jit, _state = _bare_tier(bitcount_small)
        pc = next(
            pc
            for pc in range(len(bitcount_small.program.instructions))
            if superblock_length(bitcount_small.program.instructions, pc)
        )
        assert jit.runner(pc) is not None
        assert jit._active
        jit.note_voltage(1.0)  # first call: baseline, no invalidation
        assert jit._active and jit.stats.voltage_invalidations == 0
        jit.note_voltage(1.0)  # same voltage: no-op
        assert jit._active and jit.stats.voltage_invalidations == 0
        jit.note_voltage(0.9)  # an actual move
        assert not jit._active
        assert jit.stats.voltage_invalidations == 1
        # Re-activation rebinds from the compile cache, no recompile.
        compiled_before = jit.stats.blocks_compiled
        assert jit.runner(pc) is not None
        assert jit.stats.blocks_compiled == compiled_before

    def test_segment_turnover_rebinds_recorder(self, bitcount_small):
        jit, _state = _bare_tier(bitcount_small)
        recorder = lambda *a, **k: None  # noqa: E731
        jit.note_segment(types.SimpleNamespace(record_instruction=recorder))
        assert jit._rec is recorder
        assert jit.stats.segment_rebinds == 1

    def test_engine_counts_dvfs_invalidations(self):
        workload = build_spec_workload("milc", iterations=12)
        system = ParaDoxSystem(dvs=True)
        engine = system.engine(workload, seed=5)
        engine.run(workload.max_instructions)
        assert engine.jit is not None
        stats = engine.jit.stats
        assert stats.dispatches > 0 and stats.instructions > 0
        assert stats.segment_rebinds > 0
        assert stats.voltage_invalidations > 0  # DVS moved the supply


# ---------------------------------------------------------------------------
# fault-injection points are structurally outside the tier


class TestInjectionGating:
    def test_main_core_injector_disables_tier(self, bitcount_small):
        injector = default_injector(1e-4, seed=1, target="main")
        engine = ParaDoxSystem().engine(bitcount_small, injector=injector)
        engine.run(bitcount_small.max_instructions)
        assert engine.jit is None

    def test_checker_injector_keeps_tier(self, bitcount_small):
        injector = default_injector(1e-4, seed=1, target="checker")
        engine = ParaDoxSystem().engine(bitcount_small, injector=injector)
        engine.run(bitcount_small.max_instructions)
        assert engine.jit is not None

    def test_options_flag_disables_tier(self, bitcount_small):
        engine = ParaDoxSystem(jit=False).engine(bitcount_small)
        engine.run(bitcount_small.max_instructions)
        assert engine.jit is None


# ---------------------------------------------------------------------------
# CLI surface


class TestCliFlags:
    def test_jit_flags_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["run", "bitcount"]).jit is True
        assert parser.parse_args(["run", "bitcount", "--no-jit"]).jit is False
        assert parser.parse_args(["suite", "--no-jit"]).jit is False
        assert parser.parse_args(["trace", "bitcount", "--jit"]).jit is True
        assert parser.parse_args(["diffcheck", "crc32", "--no-jit"]).no_jit
        assert parser.parse_args(["fuzz", "--no-jit"]).no_jit

    def test_campaign_spec_carries_resolved_timeout(self):
        from repro.cli import build_parser, campaign_spec_from_args

        parser = build_parser()
        args = parser.parse_args(["campaign", "--run-timeout", "9"])
        assert campaign_spec_from_args(args).timeout_s == 9.0
        # The watchdog defaults to 60 s without the flag.
        args = parser.parse_args(["campaign"])
        assert campaign_spec_from_args(args).timeout_s == 60.0


# ---------------------------------------------------------------------------
# fan-out watchdog escalation


def _ignore_sigterm_and_hang(_payload):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        time.sleep(0.05)


class TestWatchdogEscalation:
    def test_sigterm_immune_worker_is_killed_and_reaped(self):
        outcomes = run_fanout(
            _ignore_sigterm_and_hang, ["x"], jobs=1, timeout_s=0.5
        )
        assert outcomes[0].status == "timeout"
