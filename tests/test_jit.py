"""Compiled superblock tier: discovery, bit-identity, invalidation.

The contract under test: running any workload through the tier's two
emission modes (``EngineOptions.jit``: commit-only regions in the
unprotected loop, record regions in the protected fill loop and the
oracle's ``use_jit``) is *bit-identical* to pure interpretation — same
final architectural state as ``golden_run``, same retired-instruction
count, same timing, same telemetry-visible bookkeeping, and the same
trap at a PC outside the program.  Every region is checked on its own
too, in both modes: any offsets ``[s, e)`` of it equal ``e - s``
interpreted steps, also when the data port raises part-way, when its
closing branch goes either way, and when a detection bound stops it
early.  The cache protocol (a region is compiled only when a run
dispatches into it, the oracle compiles exactly what the protected
engine binds, bound regions survive DVFS voltage moves, segment
turnover rebinds the recorder) and the structural exclusion of
fault-injection points (no tier exists under a main-core injector) are
pinned explicitly.
"""

from __future__ import annotations

import math
import random
import signal
import time
import types

import pytest

from repro.config import table1_config
from repro.core import (
    BaselineSystem,
    DetectionOnlySystem,
    ParaDoxSystem,
    ParaMedicSystem,
)
from repro.cores import MainCoreTiming, TournamentPredictor
from repro.faults.injector import default_injector
from repro.isa import (
    ArchState,
    Executor,
    Instruction,
    InvalidPcTrap,
    MemoryBoundsTrap,
    MemoryImage,
    Opcode,
    Program,
    assemble,
)
from repro.isa.decode import UNIT_INDEX, decode_table
from repro.isa.instructions import (
    BRANCH_OPCODES,
    CONDITIONAL_FLAG_BRANCHES,
    CONDITIONAL_REG_BRANCHES,
)
from repro.isa.registers import MASK64
from repro.jit import COMPILABLE_OPCODES, MAX_BLOCK, MIN_BLOCK, SuperblockJit
from repro.jit.tier import _SHARED_CODE
from repro.memory import MemoryHierarchy
from repro.oracle import differential
from repro.oracle.fuzzer import PROFILES, build_workload, generate_case, run_case
from repro.parallel import run_fanout
from repro.workloads import Workload, build_bitcount, build_spec_workload, golden_run

# ---------------------------------------------------------------------------
# discovery


def _assert_region_shape(program):
    """``HALT`` and ``SYSCALL`` never compile, and a branch only ever
    ends a region; every other instruction in a region is compilable."""
    for pc, (start, room) in decode_table(program).blocks.items():
        assert start <= pc
        *body, last = program.instructions[start : pc + room]
        for instr in body:
            assert instr.opcode in COMPILABLE_OPCODES, (pc, instr)
        assert last.opcode in COMPILABLE_OPCODES | BRANCH_OPCODES, (pc, last)


class TestSuperblockDiscovery:
    def test_branches_halt_syscall_are_not_compilable(self):
        # Branches may only end a region, so none may sit inside one.
        assert not (COMPILABLE_OPCODES & set(BRANCH_OPCODES))
        assert Opcode.HALT not in COMPILABLE_OPCODES
        assert Opcode.SYSCALL not in COMPILABLE_OPCODES
        program = assemble(
            "top:\nmovi x1, 1\nmovi x2, 2\nmovi x3, 3\nsyscall 1\n"
            "movi x4, 4\nmovi x5, 5\nmovi x6, 6\nhalt\n"
            "movi x1, 1\nmovi x2, 2\nb top\nb top\nmovi x3, 3\nhalt"
        )
        blocks = decode_table(program).blocks
        # SYSCALL and HALT end a stretch before themselves, the first
        # ``b`` ends its stretch with itself, and the second ``b`` has
        # no stretch before it.
        assert blocks == {0: (0, 3), 4: (4, 3), 8: (8, 3)}
        _assert_region_shape(program)

    def test_out_of_range_pc(self):
        program = assemble("movi x1, 1\nmovi x2, 2\nmovi x3, 3\nhalt")
        blocks = decode_table(program).blocks
        assert blocks == {0: (0, 3)}
        assert -1 not in blocks and 99 not in blocks

    def test_entry_on_branch_is_not_a_block(self):
        program = assemble("loop:\nmovi x1, 1\nmovi x2, 2\nmovi x3, 3\nb loop")
        assert 3 not in decode_table(program).blocks

    def test_region_ends_with_its_branch(self):
        program = assemble("loop:\nmovi x1, 1\nmovi x2, 2\ncbnz x1, loop\nhalt")
        # MIN_BLOCK counts the branch.
        assert decode_table(program).blocks == {0: (0, 3)}
        for op in sorted(BRANCH_OPCODES, key=lambda op: op.mnemonic):
            branch = Instruction(op, rd=5, rs1=1, target=0)
            program = Program(
                instructions=(Instruction(Opcode.MOVI, rd=1, imm=1),) * 2
                + (branch, Instruction(Opcode.HALT)),
                labels={},
                name="tail",
            )
            assert decode_table(program).blocks == {0: (0, 3)}, op

    def test_short_runs_stay_interpreted(self):
        program = assemble("movi x1, 1\nmovi x2, 2\nhalt")
        assert decode_table(program).blocks == {}
        assert MIN_BLOCK == 3

    def test_region_stops_before_terminator(self):
        program = assemble(
            "movi x1, 1\nmovi x2, 2\nadd x3, x1, x2\nsub x4, x3, x1\nhalt"
        )
        assert decode_table(program).blocks[0] == (0, 4)

    def test_overlapping_entries(self):
        program = assemble(
            "movi x1, 1\nmovi x2, 2\nadd x3, x1, x2\nsub x4, x3, x1\n"
            "mul x5, x4, x2\nhalt"
        )
        assert decode_table(program).blocks == {0: (0, 5), 1: (0, 4), 2: (0, 3)}

    def test_length_cap(self):
        source = "\n".join(f"movi x{1 + (i % 5)}, {i}" for i in range(200))
        program = assemble(source + "\nhalt")
        assert decode_table(program).blocks[0] == (0, MAX_BLOCK)

    def test_fuzz_blocks_never_contain_excluded_opcodes(self):
        ended_by_branch = 0
        for profile in PROFILES:
            program = build_workload(generate_case(11, profile)).program
            _assert_region_shape(program)
            ended_by_branch += sum(
                program.instructions[start + length - 1].is_branch
                for start, length in _region_spans(program)
            )
        assert ended_by_branch > 0

    def test_stretches_are_cut_into_fixed_regions(self):
        source = "\n".join(f"movi x{1 + (i % 5)}, {i}" for i in range(MAX_BLOCK + 4))
        program = assemble("b skip\nskip:\n" + source + "\nhalt")
        blocks = decode_table(program).blocks
        first, second = 1, 1 + MAX_BLOCK
        # Neither the branch (pc 0) nor the halt is a block start, and
        # entering near a region's end leaves too little room to dispatch.
        assert sorted(blocks) == [*range(first, second - 2), second, second + 1]
        assert blocks[first] == (first, MAX_BLOCK)
        assert blocks[second - 3] == (first, 3)
        assert blocks[second] == (second, 4)
        assert blocks[second + 1] == (second, 3)

    def test_a_cut_stretch_keeps_its_branch_in_the_last_region(self):
        source = "\n".join(f"movi x{1 + (i % 5)}, {i}" for i in range(MAX_BLOCK + 2))
        program = assemble("top:\n" + source + "\nbne top\nhalt")
        blocks = decode_table(program).blocks
        assert blocks[0] == (0, MAX_BLOCK)
        assert blocks[MAX_BLOCK] == (MAX_BLOCK, 3)
        assert MAX_BLOCK + 1 not in blocks


# ---------------------------------------------------------------------------
# bit-identity: the unprotected loop against the golden run


def _assert_golden_identical(workload):
    """Run the unprotected loop (commit-only blocks) with the tier on and
    off: both end in the golden run's state, memory and output, with
    identical results.  Returns the tier's engine and result."""
    golden = golden_run(workload)
    runs = []
    for jit in (True, False):
        engine = BaselineSystem(jit=jit).engine(workload)
        result = engine.run(workload.max_instructions)
        assert (engine.jit is not None) == jit
        state = engine.state
        assert state.regs.x == golden.state.regs.x
        assert state.regs.f == golden.state.regs.f
        assert state.regs.flags == golden.state.regs.flags
        assert (state.pc, state.halted) == (golden.state.pc, golden.state.halted)
        assert result.instructions == golden.instructions
        assert result.program_output == golden.output
        assert engine.memory.words == golden.memory.words
        runs.append((engine, result))
    (engine, jitted), (_, interp) = runs
    assert _result_fingerprint(jitted) == _result_fingerprint(interp)
    return engine, jitted


class TestExecutorIdentity:
    def test_kernel_workload(self, bitcount_small):
        engine, _ = _assert_golden_identical(bitcount_small)
        assert engine.jit.stats.dispatches > 0

    def test_spec_workload(self):
        _assert_golden_identical(build_spec_workload("bzip2", iterations=3))

    def test_x0_destination_discards_write_but_retires(self):
        program = assemble(
            "movi x1, 7\nmovi x2, 5\nadd x0, x1, x2\nsub x0, x1, x2\n"
            "mul x3, x1, x2\nadd x4, x3, x0\nhalt"
        )
        # The x0-dest instructions sit inside one compiled block.
        assert decode_table(program).blocks[0] == (0, 6)
        workload = Workload(name="x0", program=program, max_instructions=100)
        engine, result = _assert_golden_identical(workload)
        assert engine.jit.stats.instructions == 6
        assert engine.state.regs.x[0] == 0
        assert result.instructions == 7

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_every_fuzz_profile(self, profile):
        for seed in (1, 7, 23):
            _assert_golden_identical(
                build_workload(generate_case(seed, profile))
            )


# ---------------------------------------------------------------------------
# bit-identity: every region, entered and left anywhere


class _PortStop(Exception):
    pass


class _Port:
    """A data port that logs every access, loads a hash of the address,
    and raises on its ``fail_at``-th call."""

    def __init__(self, fail_at=None):
        self.log = []
        self.fail_at = fail_at

    def _access(self, entry):
        if len(self.log) == self.fail_at:
            raise _PortStop
        self.log.append(entry)

    def load(self, address):
        self._access(("load", address))
        return (address * 0x9E3779B97F4A7C15 + 1) & MASK64

    def store(self, address, value):
        self._access(("store", address, value))


def _random_state(seed, pc):
    rng = random.Random(seed)
    state = ArchState(pc=pc, instret=1000 + seed % 977)
    state.regs.x[1:] = [rng.getrandbits(64) for _ in range(31)]
    state.regs.f[:] = [rng.getrandbits(64) for _ in range(len(state.regs.f))]
    state.regs.flags = rng.getrandbits(4)
    return state


class _Harness:
    """An interpreter and a tier in one emission mode over one state and
    one port; each run starts from a seeded random state and a fresh
    main-core timing model."""

    def __init__(self, program, record):
        self.program = program
        self.config = table1_config()
        self.state = ArchState()
        self.port = _Port()
        self.executor = Executor(program, self.state, self.port)
        self.recs, self.commits = [], []
        self.record = record
        self.timing = None
        self.jit = SuperblockJit(
            program, self.state, self.port, self._commit, record=record
        )

    def _commit(self, pc, address=None, taken=None, pc_after=None):
        cycle = self.timing.commit(pc, address, taken, pc_after)
        # The timing model reads ``pc_after`` of branches only, and only
        # the interpreted loops pass it for other instructions.
        if taken is None:
            pc_after = None
        self.commits.append((pc, address, taken, pc_after, cycle))
        return cycle

    def _rec(self, unit, writes):
        self.recs.append((unit, writes))

    def _start(self, seed, pc, fail_at):
        self.state.restore(_random_state(seed, pc))
        self.port.log = []
        self.port.fail_at = fail_at
        self.recs.clear()
        self.commits.clear()
        config = self.config
        self.timing = MainCoreTiming(
            config.main_core,
            MemoryHierarchy(config),
            TournamentPredictor(config.branch_predictor),
            self.program,
        )

    def _observe(self, raised):
        regs = self.state.regs
        return {
            "x": list(regs.x),
            "f": list(regs.f),
            "flags": regs.flags,
            "pc": self.state.pc,
            "instret": self.state.instret,
            "port": self.port.log,
            "raised": raised,
            "recs": list(self.recs),
            "commits": list(self.commits),
            "now": self.timing.now,
            "mix": dict(self.timing.unit_mix),
        }

    def interpreted(self, seed, pc, steps, fail_at):
        """``steps`` interpreted instructions, with the engine loop's
        bookkeeping, in its order, where this mode has it."""
        self._start(seed, pc, fail_at)
        ran = 0
        try:
            for _ in range(steps):
                info = self.executor.step()
                self._commit(info.pc_before, info.address, info.taken, info.pc_after)
                if self.record:
                    self._rec(UNIT_INDEX[info.instruction.unit], info.dest is not None)
                ran += 1
        except _PortStop:
            ran = None
        return {**self._observe(ran is None), "ran": ran}

    def compiled(self, seed, start, s, e, fail_at, bound=math.inf):
        """Offsets ``[s, e)`` of the region at ``start``; record regions
        also take ``bound``."""
        self._start(seed, start + s, fail_at)
        run = self.jit.runner(start)
        try:
            if self.record:
                reached = run(self._rec, s, e, bound)
            else:
                reached = run(s, e)
            ran = reached - s
        except _PortStop:
            ran = None
        return {**self._observe(ran is None), "ran": ran}


def _region_spans(program):
    """``(start, length)`` of every region a block can enter."""
    blocks = decode_table(program).blocks
    return sorted({blocks[start] for start, _room in blocks.values()})


def _assert_regions_match_interpreter(program, record):
    """Check every region against the interpreter; return the
    ``(pc, taken)`` outcomes its closing conditional branches took."""
    spans = _region_spans(program)
    assert spans
    harness = _Harness(program, record)
    outcomes = set()
    for start, length in spans:
        rng = random.Random(start * 131 + length)
        pairs = {(0, length), (length - 1, length), (0, 1)}
        while len(pairs) < min(8, length * (length + 1) // 2):
            s = rng.randrange(length)
            pairs.add((s, rng.randrange(s + 1, length + 1)))
        memory_ops = sum(
            program.instructions[pc].opcode
            in (Opcode.LDR, Opcode.FLDR, Opcode.STR, Opcode.FSTR)
            for pc in range(start, start + length)
        )
        cases = [(s, e, None) for s, e in sorted(pairs)]
        # A port that raises at each of the region's memory operations.
        cases += [(0, length, fail_at) for fail_at in range(memory_ops)]
        for s, e, fail_at in cases:
            seed = start * 7919 + s * 97 + e
            got = harness.compiled(seed, start, s, e, fail_at)
            want = harness.interpreted(seed, start + s, e - s, fail_at)
            assert got == want, (start, s, e, fail_at)
            assert got["raised"] == (fail_at is not None)
            assert got["ran"] in (None, e - s)
            last = start + length - 1
            if e == length and not got["raised"]:
                opcode = program.instructions[last].opcode
                if opcode in CONDITIONAL_FLAG_BRANCHES | CONDITIONAL_REG_BRANCHES:
                    # The branch resolved as interpreted: took the same
                    # way and left the block at the same PC.
                    outcomes.add((last, got["pc"] == program.instructions[last].target))
        if record:
            # A detection bound at the commit cycle of offset ``k`` stops
            # the block right after ``k``, exactly where interpreting
            # through ``k`` ends.
            seed = start * 7919 + length
            full = harness.interpreted(seed, start, length, None)
            cycles = [commit[-1] for commit in full["commits"]]
            for k in sorted({0, length // 2, length - 2, length - 1}):
                got = harness.compiled(seed, start, 0, length, None, cycles[k])
                want = harness.interpreted(seed, start, k + 1, None)
                assert got == want, (start, k)
                assert got["ran"] == k + 1
    return outcomes


def _assert_both_ways(outcomes):
    """Some closing conditional branch was seen taken and not taken."""
    taken = {pc for pc, went in outcomes if went}
    assert any(pc in taken for pc, went in outcomes if not went), outcomes


#: The two emission modes: the unprotected loop's and the fill loop's.
_MODE_IDS = ["commit", "record+commit"]


class TestRegionEquivalence:
    @pytest.mark.parametrize("record", [False, True], ids=_MODE_IDS)
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_every_fuzz_region(self, profile, record):
        outcomes = set()
        for seed in (1, 7, 23):
            program = build_workload(generate_case(seed, profile)).program
            outcomes |= _assert_regions_match_interpreter(program, record)
        _assert_both_ways(outcomes)

    @pytest.mark.parametrize("record", [False, True], ids=_MODE_IDS)
    def test_every_spec_region(self, record):
        program = build_spec_workload("gobmk", iterations=2).program
        _assert_both_ways(_assert_regions_match_interpreter(program, record))


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

    @pytest.mark.parametrize(
        "system",
        [BaselineSystem, DetectionOnlySystem, ParaMedicSystem, ParaDoxSystem],
        ids=["baseline", "detection", "paramedic", "paradox"],
    )
    def test_every_system_with_and_without_the_tier(self, bitcount_small, system):
        # Baseline runs the unprotected loop (commit-only blocks over the
        # memory image); the others run the fill loop (blocks that also
        # record into the segment log).
        engine = system().engine(bitcount_small, seed=7)
        jitted = engine.run(bitcount_small.max_instructions)
        assert engine.jit.stats.dispatches > 0
        interp = system(jit=False).run(bitcount_small, seed=7)
        assert _result_fingerprint(jitted) == _result_fingerprint(interp)

    def test_dvs_run(self):
        workload = build_spec_workload("milc", iterations=12)
        jitted = ParaDoxSystem(dvs=True).run(workload, seed=3)
        interp = ParaDoxSystem(dvs=True, jit=False).run(workload, seed=3)
        assert jitted.voltage_trace  # DVS actually moved the supply
        assert _result_fingerprint(jitted) == _result_fingerprint(interp)

    def test_checker_fault_run_with_recoveries(self):
        workload = build_spec_workload("milc", iterations=12)
        config = table1_config().with_error_rate(1e-3, seed=3)
        jitted = ParaDoxSystem(config=config).run(workload, seed=3)
        interp = ParaDoxSystem(config=config, jit=False).run(workload, seed=3)
        assert jitted.faults_injected > 0
        assert jitted.recoveries  # rollbacks replayed through both paths
        assert _result_fingerprint(jitted) == _result_fingerprint(interp)

    @pytest.mark.parametrize(
        "workload",
        [build_bitcount(values=10), build_spec_workload("sjeng", iterations=3)],
        ids=lambda workload: workload.name,
    )
    def test_error_seeking_run_stays_in_blocks(self, workload):
        # Figure 8's error-seeking regime: a detecting check is in flight
        # for long stretches, and blocks keep running through them.  Over
        # five fault schedules some detection matures on the instruction
        # that also fills the segment, where the detection must win.
        for seed in range(1, 6):
            config = table1_config().with_error_rate(5e-3, seed=seed)
            system = ParaDoxSystem(config=config, resilient=True)
            engine = system.engine(workload, seed=seed)
            jitted = engine.run(workload.max_instructions)
            interp = ParaDoxSystem(config=config, resilient=True, jit=False).run(
                workload, seed=seed
            )
            assert _result_fingerprint(jitted) == _result_fingerprint(interp), seed
            assert jitted.recoveries, seed
            executed = jitted.instructions_executed
            assert engine.jit.stats.instructions >= 0.9 * executed, seed


# ---------------------------------------------------------------------------
# wild PCs


def _wild_pc_workload():
    """A branch to PC -4, eight ``addi x1, x1, 1`` and ``halt``: a PC
    outside the program that the per-PC tables would index from their
    end.  Built from instructions, as the assembler resolves labels only.
    """
    instructions = (
        (Instruction(Opcode.B, target=-4),)
        + (Instruction(Opcode.ADDI, rd=1, rs1=1, imm=1),) * 8
        + (Instruction(Opcode.HALT),)
    )
    program = Program(instructions=instructions, labels={}, name="wild_pc")
    return Workload(name="wild_pc", program=program, max_instructions=100)


class TestWildPc:
    def test_negative_pc_traps_where_the_interpreter_does(self):
        workload = _wild_pc_workload()
        with pytest.raises(InvalidPcTrap, match="^pc -4 outside"):
            golden_run(workload)
        # The unprotected loop lets the trap out; ParaDox retries it from
        # the checkpoint until it gives up on a deterministic bug.
        for system in (BaselineSystem, ParaDoxSystem):
            ends = []
            for jit in (False, True):
                engine = system(jit=jit).engine(workload)
                with pytest.raises((InvalidPcTrap, RuntimeError)) as raised:
                    engine.run(workload.max_instructions)
                assert (engine.jit is not None) == jit
                state = engine.state
                ends.append(
                    (
                        type(raised.value),
                        str(raised.value),
                        state.pc,
                        state.instret,
                        state.regs.x[1],
                    )
                )
            assert ends[0] == ends[1]
            assert ends[0][2:] == (-4, 1, 0)

    @pytest.mark.parametrize("use_jit", [True, False], ids=["jit", "interp"])
    def test_diffcheck_compares_the_trap(self, use_jit):
        # The branch retires and is cross-checked; the main core and the
        # reference then trap on the same PC in the same way.
        report = differential.diff_workload(_wild_pc_workload(), use_jit=use_jit)
        assert report.ok, report.divergence
        assert report.instructions == 1
        assert report.segments == 1

    def test_diffcheck_reports_a_different_trap(self, monkeypatch):
        class OtherTrap(differential.ReferenceISS):
            def step(self):
                if self.pc < 0:
                    raise MemoryBoundsTrap(0)
                super().step()

        monkeypatch.setattr(differential, "ReferenceISS", OtherTrap)
        divergence = differential.diff_workload(_wild_pc_workload()).divergence
        assert (divergence.stage, divergence.field) == ("executor", "trap")
        assert divergence.expected == repr(MemoryBoundsTrap(0))
        assert divergence.actual == repr(InvalidPcTrap(-4))


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


class TestInvalidation:
    def _dvs_engine(self):
        workload = build_spec_workload("milc", iterations=12)
        engine = ParaDoxSystem(dvs=True).engine(workload, seed=5)
        engine.run(workload.max_instructions)
        assert engine.jit is not None
        assert len({voltage for _, voltage in engine.dvfs.stats.trace}) > 1
        return engine

    def test_voltage_move_keeps_bound_blocks(self):
        engine = self._dvs_engine()
        bound = dict(engine.jit._active)
        assert any(entry is not None for entry in bound.values())
        before = engine.dvfs.voltage
        engine.dvfs.on_checkpoint(True, engine.wall_ns)  # an error raises V
        engine.dvfs.advance_to(engine.wall_ns + 1e6)  # ... and it slews there
        engine._sync_dvfs_outputs()
        assert engine.dvfs.voltage != before
        assert engine.jit._active.keys() == bound.keys()
        assert all(engine.jit._active[pc] is entry for pc, entry in bound.items())
        assert engine.jit.stats.voltage_invalidations == 0

    def test_segment_turnover_rebinds_recorder(self, bitcount_small):
        memory = bitcount_small.create_memory()
        commit = lambda *a: 0.0  # noqa: E731
        jit = SuperblockJit(
            bitcount_small.program, ArchState(), memory, commit, record=True
        )
        recorder = lambda *a, **k: None  # noqa: E731
        jit.note_segment(types.SimpleNamespace(record_instruction=recorder))
        assert jit._rec is recorder
        assert jit.stats.segment_rebinds == 1

    def test_dvs_run_binds_each_entry_once(self):
        jit = self._dvs_engine().jit
        stats = jit.stats
        assert stats.dispatches > 0 and stats.instructions > 0
        assert stats.segment_rebinds > 0
        assert stats.voltage_invalidations == 0
        # One bind per region, keyed by its start: nothing was dropped
        # and re-bound after a voltage move, and blocks entered in the
        # middle of a region shared its one binding.
        assert stats.activations == len(jit._active)
        blocks = decode_table(jit.program).blocks
        assert all(blocks[pc][0] == pc for pc in jit._active)
        assert stats.dispatches > stats.activations


class TestCompileVolume:
    def test_paradox_run_compiles_only_what_it_runs(self):
        # A freshly built program object: its code cache starts empty.
        workload = build_spec_workload("gobmk", iterations=3)
        program = workload.program
        engine = ParaDoxSystem().engine(workload, seed=11)
        engine.run(workload.max_instructions)
        jit = engine.jit
        code = _SHARED_CODE[(id(program), True)]
        # Every compiled region was bound, and so dispatched, by this run.
        assert code.keys() == jit._active.keys()
        assert jit.stats.blocks_compiled == len(code) == jit.stats.activations
        # Within one emission mode, compiled regions never overlap.
        table = decode_table(program)
        for (program_id, _record), regions in _SHARED_CODE.items():
            if program_id != id(program):
                continue
            seen = set()
            for start in regions:
                span = set(range(start, start + table.blocks[start][1]))
                assert not span & seen
                seen |= span

    def test_oracle_compiles_what_paradox_binds(self):
        # The differential oracle runs the protected engine's record
        # regions, so after it passes a ParaDox run over the same program
        # object finds every region it enters already compiled.  Its
        # checker replay binds commit-only regions, the replay mode.
        workload = build_spec_workload("gobmk", iterations=2)
        program = workload.program
        report = differential.diff_workload(workload)
        assert report.ok, report.divergence
        engine = ParaDoxSystem().engine(workload, seed=11)
        engine.run(workload.max_instructions)
        assert engine.jit.stats.activations > 0
        assert engine.jit.stats.blocks_compiled == 0
        keys = [key for key in _SHARED_CODE if key[0] == id(program)]
        assert sorted(keys) == [(id(program), False), (id(program), True)]

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_oracle_compiles_what_paradox_binds_on_fuzz_cases(self, profile):
        # The fuzz corpus gates the code the protected engine binds: the
        # oracle's pass over a case compiles every region a ParaDox run
        # over the same program object enters, in the two modes the
        # fill loop and the checker replay bind.
        for seed in (1, 7, 23):
            workload = build_workload(generate_case(seed, profile))
            program = workload.program
            report = differential.diff_workload(workload)
            assert report.ok, report.divergence
            engine = ParaDoxSystem().engine(workload, seed=11)
            engine.run(workload.max_instructions)
            assert engine.jit.stats.activations > 0, seed
            assert engine.jit.stats.blocks_compiled == 0, seed
            keys = [key for key in _SHARED_CODE if key[0] == id(program)]
            assert sorted(keys) == [(id(program), False), (id(program), True)], seed


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
