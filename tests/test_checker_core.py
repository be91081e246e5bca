"""Checker-core model: replay correctness, detection, timing."""

import pytest

from repro.config import CacheConfig, CheckerConfig, table1_config
from repro.cores import CheckerCore, icache_penalty, miss_probability
from repro.cores.icache_model import L0_MISS_CYCLES
from repro.isa import ArchState, Executor, MemoryImage, ProgramBuilder, assemble
from repro.isa.decode import NO_SLOT, decode_table
from repro.lslog import (
    DetectionChannel,
    LogSegment,
    MainMemoryPort,
    RollbackGranularity,
    SegmentCloseReason,
)
from repro.memory import UncheckedLineTracker


def fill_segment(program, instructions=None):
    """Run the whole program on a 'main core' (functional only), filling
    one big segment; return (segment, program)."""
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
    budget = instructions or 100_000
    table = decode_table(program)
    while not state.halted and segment.instruction_count < budget:
        pc = executor.step().pc_before
        segment.record_instruction(
            table.unit_index[pc], writes_register=table.writes_register[pc]
        )
    segment.close(state.snapshot(), SegmentCloseReason.PROGRAM_END)
    return segment


def make_checker(program):
    return CheckerCore(table1_config().checker, program)


SIMPLE = """
    movi x1, 64
    movi x2, 5
    str x2, [x1]
    ldr x3, [x1]
    add x4, x3, x2
    str x4, [x1, 8]
    halt
"""


class TestCleanChecking:
    def test_clean_segment_passes(self):
        program = assemble(SIMPLE)
        segment = fill_segment(program)
        result = make_checker(program).check_segment(segment)
        assert not result.detected
        assert result.instructions_executed == segment.instruction_count

    def test_checker_does_not_mutate_checkpoint(self):
        program = assemble(SIMPLE)
        segment = fill_segment(program)
        before = segment.start_state.snapshot()
        make_checker(program).check_segment(segment)
        assert segment.start_state.matches(before)

    def test_checking_unclosed_segment_rejected(self):
        program = assemble(SIMPLE)
        segment = LogSegment(
            seq=1,
            granularity=RollbackGranularity.LINE,
            capacity_bytes=1024,
            start_state=ArchState(),
        )
        with pytest.raises(ValueError):
            make_checker(program).check_segment(segment)

    def test_analytic_cycles_match_replay_for_clean_run(self):
        program = assemble(SIMPLE)
        segment = fill_segment(program)
        checker = make_checker(program)
        result = checker.check_segment(segment)
        assert result.checker_cycles == pytest.approx(
            checker.analytic_cycles(segment)
        )


class _Corruptor:
    """Minimal SegmentFaultHook flipping state at a chosen instruction."""

    def __init__(self, at_instruction=None, load_flip=None, store_flip=None):
        self.at = at_instruction
        self.load_flip = load_flip
        self.store_flip = store_flip

    def before_instruction(self, state, index):
        if self.at is not None and index == self.at:
            state.regs.x[2] ^= 0x10

    def after_instruction(self, state, unit, slot, index):
        pass

    def corrupt_load(self, op_index, address, value):
        if self.load_flip is not None and op_index == self.load_flip:
            return value ^ 1
        return value

    def corrupt_store(self, op_index, address, value):
        if self.store_flip is not None and op_index == self.store_flip:
            return value ^ 1
        return value


class TestDetectionChannels:
    def test_register_corruption_detected_at_store(self):
        program = assemble(SIMPLE)
        segment = fill_segment(program)
        result = make_checker(program).check_segment(segment, _Corruptor(at_instruction=2))
        assert result.detected
        assert result.channel in (
            DetectionChannel.STORE_COMPARISON,
            DetectionChannel.FINAL_STATE,
        )

    def test_load_log_corruption_detected(self):
        program = assemble(SIMPLE)
        segment = fill_segment(program)
        result = make_checker(program).check_segment(segment, _Corruptor(load_flip=0))
        assert result.detected

    def test_store_log_corruption_detected_immediately(self):
        program = assemble(SIMPLE)
        segment = fill_segment(program)
        result = make_checker(program).check_segment(segment, _Corruptor(store_flip=0))
        assert result.detected
        assert result.channel is DetectionChannel.STORE_COMPARISON

    def test_final_state_mismatch_on_silent_register_change(self):
        program = assemble("movi x1, 1\nmovi x2, 2\nmovi x3, 3\nhalt")
        segment = fill_segment(program)

        class LateFlip(_Corruptor):
            def before_instruction(self, state, index):
                if index == 3:  # after all movis, before halt
                    state.regs.x[9] ^= 1  # never stored: silent until final

        result = make_checker(program).check_segment(segment, LateFlip())
        assert result.detected
        assert result.channel is DetectionChannel.FINAL_STATE

    def test_pc_corruption_detected_as_exception_or_state(self):
        program = assemble(SIMPLE)
        segment = fill_segment(program)

        class PcFlip(_Corruptor):
            def before_instruction(self, state, index):
                if index == 1:
                    state.pc ^= 0x400  # wild PC

        result = make_checker(program).check_segment(segment, PcFlip())
        assert result.detected
        assert result.channel in (
            DetectionChannel.EXCEPTION,
            DetectionChannel.FINAL_STATE,
            DetectionChannel.LOG_EXHAUSTED,
        )

    def test_detection_reports_instruction_index(self):
        program = assemble(SIMPLE)
        segment = fill_segment(program)
        result = make_checker(program).check_segment(segment, _Corruptor(at_instruction=2))
        assert result.detection.instruction_index is not None
        assert 0 < result.detection.instruction_index <= segment.instruction_count

    def test_masked_fault_goes_undetected(self):
        """A flip in a register that is overwritten before any use is
        architecturally invisible — the paper's 'remain undetected' case."""
        program = assemble("movi x1, 1\nmovi x2, 2\nmovi x2, 3\nhalt")
        segment = fill_segment(program)

        class MaskedFlip(_Corruptor):
            def before_instruction(self, state, index):
                if index == 2:  # x2 about to be overwritten by movi x2, 3
                    state.regs.x[2] ^= 0xFF

        result = make_checker(program).check_segment(segment, MaskedFlip())
        assert not result.detected


class _LogOnly:
    """A hook with neither instruction hook: it sees only the logs."""

    def corrupt_load(self, op_index, address, value):
        return value

    def corrupt_store(self, op_index, address, value):
        return value


#: Which of the two optional instruction hooks a hook defines.
HOOK_SHAPES = {
    "neither": (),
    "before": ("before_instruction",),
    "after": ("after_instruction",),
    "both": ("before_instruction", "after_instruction"),
}


def _recording_hook(names):
    """A clean hook whose instruction hooks record the indices they see."""
    hook = _LogOnly()
    hook.seen = {name: [] for name in names}
    for name in names:
        setattr(hook, name, lambda *args, seen=hook.seen[name]: seen.append(args[-1]))
    return hook


LOOP = """
    movi x1, 64
    movi x9, 30
loop:
    add x2, x2, x9
    str x2, [x1]
    ldr x3, [x1]
    subi x9, x9, 1
    cbnz x9, loop
    halt
"""


class TestOptionalInstructionHooks:
    """The checker calls ``before_instruction``/``after_instruction``
    only where a hook defines them."""

    @pytest.mark.parametrize("shape", list(HOOK_SHAPES))
    def test_clean_hook_replays_like_no_hook(self, shape):
        program = assemble(LOOP)
        segment = fill_segment(program)
        plain = make_checker(program).check_segment(segment)
        hook = _recording_hook(HOOK_SHAPES[shape])
        hooked = make_checker(program).check_segment(segment, hook)
        assert not plain.detected and not hooked.detected
        assert hooked.instructions_executed == plain.instructions_executed
        assert hooked.checker_cycles == plain.checker_cycles
        every = list(range(segment.instruction_count))
        assert hook.seen == {name: every for name in HOOK_SHAPES[shape]}

    def test_before_hook_alone_corrupts(self):
        program = assemble(SIMPLE)
        segment = fill_segment(program)
        hook = _LogOnly()

        def before_instruction(state, index):
            if index == 2:  # str x2: store a corrupted x2
                state.regs.x[2] ^= 0x10

        hook.before_instruction = before_instruction
        result = make_checker(program).check_segment(segment, hook)
        assert result.channel is DetectionChannel.STORE_COMPARISON

    @pytest.mark.parametrize("path", ["interpreted", "stepped", "compiled"])
    def test_after_hook_gets_the_table_unit_and_slot(self, path):
        """Every replay path hands ``after_instruction`` the decode
        table's unit index and write slot of the PC each step retired."""
        program = assemble(LOOP)
        segment = fill_segment(program)
        state = ArchState()
        executor = Executor(program, state, MemoryImage())
        pcs = [executor.step().pc_before for _ in range(segment.instruction_count)]
        table = decode_table(program)
        hook = _LogOnly()
        calls = []
        hook.after_instruction = lambda state, *args: calls.append(args)
        if path == "compiled":
            # A zero clean budget: every instruction may fire, so
            # compiled replay steps each one through the hooks.
            hook.replay_budgets = lambda: [(None, 0, lambda n: None)]
        checker = CheckerCore(table1_config().checker, program, jit=path != "interpreted")
        assert not checker.check_segment(segment, hook).detected
        assert calls == [
            (table.unit_index[pc], table.main_rows[pc][4], index)
            for index, pc in enumerate(pcs)
        ]
        assert NO_SLOT in {slot for _, slot, _ in calls}

    def test_after_hook_alone_corrupts(self):
        program = assemble(SIMPLE)
        segment = fill_segment(program)
        hook = _LogOnly()

        def after_instruction(state, unit, slot, index):
            if slot == 2:  # movi x2 retired: corrupt its result
                state.regs.x[2] ^= 0x10

        hook.after_instruction = after_instruction
        result = make_checker(program).check_segment(segment, hook)
        assert result.channel is DetectionChannel.STORE_COMPARISON


class TestCheckerTiming:
    def test_cycles_scale_with_instruction_count(self):
        b = ProgramBuilder("loop")
        b.movi(9, 50).label("l").subi(9, 9, 1).cbnz(9, "l").halt()
        program = b.build()
        segment = fill_segment(program)
        result = make_checker(program).check_segment(segment)
        assert result.checker_cycles >= segment.instruction_count

    def test_divides_cost_more(self):
        def build(op):
            b = ProgramBuilder("x")
            b.movi(1, 100).movi(2, 3).movi(9, 50)
            b.label("l")
            getattr(b, op)(1, 1, 2)
            b.orri(1, 1, 1)
            b.subi(9, 9, 1).cbnz(9, "l").halt()
            return b.build()

        div_prog = build("div")
        add_prog = build("add")
        div_cycles = make_checker(div_prog).check_segment(fill_segment(div_prog)).checker_cycles
        add_cycles = make_checker(add_prog).check_segment(fill_segment(add_prog)).checker_cycles
        assert div_cycles > add_cycles * 2


class TestICacheModel:
    def test_fits_in_l0_is_free(self):
        config = CheckerConfig()
        assert icache_penalty(4096, config).cycles_per_instruction == 0.0

    def test_large_footprint_costs(self):
        config = CheckerConfig()
        penalty = icache_penalty(32 * 1024, config)
        assert penalty.cycles_per_instruction > 0
        assert penalty.l0_miss_rate > 0

    def test_monotone_in_footprint(self):
        config = CheckerConfig()
        small = icache_penalty(12 * 1024, config).cycles_per_instruction
        large = icache_penalty(64 * 1024, config).cycles_per_instruction
        assert large > small

    def test_miss_probability_bounds(self):
        assert miss_probability(0, 8192) == 0.0
        assert miss_probability(8192, 8192) == 0.0
        assert 0 < miss_probability(16384, 8192) < 1

    def test_l0_only_footprint_penalty_value(self):
        config = CheckerConfig()
        penalty = icache_penalty(16 * 1024, config)
        # p(L0 miss) = 0.5, 1/16 lines per instruction, all hit shared L1.
        expected = 0.5 / 16 * L0_MISS_CYCLES
        assert penalty.cycles_per_instruction == pytest.approx(expected)
