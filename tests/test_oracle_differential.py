"""The three-way differential runner: clean runs, sensitivity, syscalls.

Includes the ``GET_INSTRET``/output-tagging satellite: a checkpoint
snapshot must carry ``instret`` exactly, or a mid-run segment replay on
a checker tags output differently from the main core and false-detects.
"""

import pytest

from repro.cli import WORKLOAD_BUILDERS
from repro.config import table1_config
from repro.cores.checker_core import CheckerCore
from repro.cores.main_core import MainCoreTiming
from repro.isa import ArchState, Executor, Opcode, ProgramBuilder, Syscall
from repro.isa.decode import decode_table
from repro.lslog import (
    LogSegment,
    MainMemoryPort,
    RollbackGranularity,
    SegmentCloseReason,
)
from repro.memory import UncheckedLineTracker
from repro.oracle import DifferentialRunner, ReferenceISS, diff_workload, differential
from repro.telemetry import Tracer
from repro.workloads import build_bitcount
from repro.workloads.base import Workload

GRANULARITIES = list(RollbackGranularity)


def build_syscall_workload(iterations: int = 12) -> Workload:
    """A loop that is dense in syscalls, including GET_INSTRET."""
    b = ProgramBuilder(name="syscall-dense")
    b.movi(29, iterations)
    b.movi(1, 7)
    b.label("loop")
    b.syscall(int(Syscall.GET_INSTRET))  # x1 <- instret (differs per lap)
    b.syscall(int(Syscall.PRINT_INT))  # tagged with pre-increment instret
    b.addi(1, 1, 3)
    b.syscall(int(Syscall.PRINT_INT))
    b.fmovi(1, 2.5)
    b.syscall(int(Syscall.PRINT_FLOAT))
    b.syscall(99)  # unknown syscall: must be a NOP everywhere
    b.subi(29, 29, 1)
    b.cbnz(29, "loop")
    b.halt()
    return Workload(name="syscall-dense", program=b.build(), max_instructions=10_000)


class TestCleanWorkloads:
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("name", ["bitcount", "quicksort"])
    def test_no_divergence(self, name, granularity):
        workload = WORKLOAD_BUILDERS[name](0.3)
        report = diff_workload(workload, granularity=granularity)
        assert report.ok, report.divergence.describe()
        assert report.instructions > 0
        assert report.segments > 0

    def test_short_checkpoint_interval(self):
        # A short interval forces many TARGET_LENGTH boundaries; every
        # one of them is a full three-way comparison.
        workload = WORKLOAD_BUILDERS["stream"](1)
        runner = DifferentialRunner(workload, checkpoint_interval=5)
        report = runner.run(max_instructions=2_000)
        assert report.ok, report.divergence.describe()
        assert report.segments >= 100

    def test_emits_oracle_telemetry(self):
        workload = WORKLOAD_BUILDERS["bitcount"](0.2)
        tracer = Tracer(command="test")
        report = diff_workload(workload, tracer=tracer)
        assert report.ok
        checkpoints = tracer.of_kind("oracle", "checkpoint")
        assert len(checkpoints) == report.checkpoints


class TestDetectorIsNotVacuous:
    def test_semantic_bug_is_reported(self, monkeypatch):
        # Corrupt ADD in every production executor built from here on;
        # the reference ISS is untouched, so the runner must report an
        # executor-stage divergence rather than pass vacuously.
        original = Executor._build_dispatch

        def buggy_build(self):
            original(self)
            real = self._dispatch[Opcode.ADD]
            regs = self.state.regs

            def corrupted(instr):
                info = real(instr)
                if instr.rd != 0:
                    regs.write_x(instr.rd, regs.x[instr.rd] ^ (1 << 17))
                return info

            self._dispatch[Opcode.ADD] = corrupted

        monkeypatch.setattr(Executor, "_build_dispatch", buggy_build)
        workload = WORKLOAD_BUILDERS["bitcount"](0.2)
        # use_jit=False: the bug is planted in the *interpreter's*
        # dispatch table, so the executor leg must actually run through
        # it for the divergence to be attributed at the executor stage.
        report = diff_workload(workload, use_jit=False)
        assert not report.ok
        assert report.divergence.stage == "executor"
        assert report.divergence.trace  # the minimized trace is populated
        # With the compiled tier on, the executor leg and the production
        # checker replay bypass the corrupted handler, but the raw
        # replay, which always interprets, still hits it: the oracle
        # remains non-vacuous, attributing at the raw replay stage.
        jit_report = diff_workload(workload)
        assert not jit_report.ok
        assert jit_report.divergence.stage == "replay"

    def test_replay_only_bug_is_reported(self, monkeypatch):
        # A bug that fires only during checker replay (port is a
        # CheckerReplayPort) is exactly what the engine fastpath hides.
        from repro.lslog.ports import CheckerReplayPort

        original = CheckerReplayPort.load

        def corrupting_load(self, address):
            value = original(self, address)
            return value ^ 1

        monkeypatch.setattr(CheckerReplayPort, "load", corrupting_load)
        workload = WORKLOAD_BUILDERS["bitcount"](0.2)
        report = diff_workload(workload)
        assert not report.ok
        assert report.divergence.stage == "checker"


    def test_raw_replay_detection_is_a_divergence(self, monkeypatch):
        # Only the raw replay's port (stage 3b) detects: its error must
        # come back as a replay divergence, not escape as a traceback.
        from repro.lslog import LoadAddressMismatch
        from repro.lslog.ports import CheckerReplayPort

        class Detecting(CheckerReplayPort):
            def load(self, address):
                raise LoadAddressMismatch(f"planted at {address:#x}")

        monkeypatch.setattr(differential, "CheckerReplayPort", Detecting)
        report = diff_workload(WORKLOAD_BUILDERS["bitcount"](0.2))
        assert not report.ok
        divergence = report.divergence
        assert (divergence.stage, divergence.field) == ("replay", "detection")
        assert divergence.actual.startswith("load address divergence: planted")


class TestTraceWindow:
    def test_trace_holds_compiled_instructions(self, monkeypatch):
        # A reference that goes wrong mid-loop: the divergence's trace
        # window must list the instructions the main core retired before
        # the boundary, whether blocks or the interpreter ran them.
        class FlipsX30(ReferenceISS):
            def step(self):
                super().step()
                if self.instret == 3000:
                    self.x[30] ^= 1

        monkeypatch.setattr(differential, "ReferenceISS", FlipsX30)
        traces = []
        for use_jit in (True, False):
            divergence = diff_workload(build_bitcount(), use_jit=use_jit).divergence
            assert (divergence.stage, divergence.field) == ("executor", "x30")
            traces.append(divergence.trace)
        assert traces[0] == traces[1]
        assert len(traces[0]) == differential.TRACE_WINDOW
        assert traces[0][-1] == "24: b kern_loop"


class TestTimingModel:
    @pytest.mark.parametrize("name", ["bitcount", "quicksort", "syscall-dense"])
    def test_commits_every_retired_instruction(self, monkeypatch, name):
        # Like the fill loop, the main-core leg commits each instruction
        # it retires to its timing model, in program order, whether a
        # block or the interpreter ran it: the commit stream is the
        # reference's retired-PC stream, and the clock ends equal.
        pcs, timings = [], []

        class Counting(MainCoreTiming):
            def __init__(self, *args):
                super().__init__(*args)
                timings.append(self)

            def commit(self, pc, *args):
                pcs.append(pc)
                return super().commit(pc, *args)

        def build():
            if name == "syscall-dense":
                return build_syscall_workload()
            return WORKLOAD_BUILDERS[name](0.3)

        monkeypatch.setattr(differential, "MainCoreTiming", Counting)
        streams = []
        for use_jit in (True, False):
            pcs.clear()
            report = diff_workload(build(), use_jit=use_jit)
            assert report.ok, report.divergence.describe()
            assert len(pcs) == report.instructions
            streams.append(list(pcs))
        workload = build()
        ref = ReferenceISS(
            workload.program,
            initial_words=workload.initial_words,
            memory_size=workload.create_memory().size,
        )
        retired = []
        while not ref.halted:
            retired.append(ref.pc)
            ref.step()
        assert streams[0] == streams[1] == retired
        jitted, interp = timings
        assert jitted.now == interp.now > 0


class TestGetInstretUnderReplay:
    """Satellite: syscall semantics must survive segment re-execution."""

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_syscall_dense_workload_diffs_clean(self, granularity):
        report = diff_workload(
            build_syscall_workload(),
            granularity=granularity,
            checkpoint_interval=7,  # boundaries land between syscalls
        )
        assert report.ok, report.divergence.describe()
        assert report.segments > 3

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_mid_run_segment_replays_without_detection(self, granularity):
        # Fill a segment that starts at a *nonzero* instret and contains
        # GET_INSTRET + PRINT_INT, then re-execute it on a production
        # checker: any instret snapshot/restore slip tags the output
        # stream differently and false-detects.
        workload = build_syscall_workload()
        config = table1_config()
        memory = workload.create_memory()
        tracker = UncheckedLineTracker(config.memory.l1d)
        port = MainMemoryPort(memory, tracker, granularity)
        state = ArchState()
        executor = Executor(workload.program, state, port)

        # Warm up past several syscalls so instret is well away from 0.
        warm = LogSegment(
            seq=1,
            granularity=granularity,
            capacity_bytes=config.checker.log_bytes_per_core,
            start_state=state.snapshot(),
        )
        port.segment = warm
        for _ in range(25):
            executor.step()
        assert state.instret == 25
        warm.close(state.snapshot(), SegmentCloseReason.EXTERNAL)

        segment = LogSegment(
            seq=2,
            granularity=granularity,
            capacity_bytes=config.checker.log_bytes_per_core,
            start_state=state.snapshot(),
        )
        port.segment = segment
        syscalls_replayed = 0
        table = decode_table(workload.program)
        for _ in range(30):
            pc = executor.step().pc_before
            segment.record_instruction(
                table.unit_index[pc], writes_register=table.writes_register[pc]
            )
            if table.instructions[pc].opcode is Opcode.SYSCALL:
                syscalls_replayed += 1
        assert syscalls_replayed > 0
        assert segment.start_state.instret == 25
        segment.close(state.snapshot(), SegmentCloseReason.EXTERNAL)

        checker = CheckerCore(config.checker, workload.program)
        result = checker.check_segment(segment)
        assert not result.detected, f"false detection: {result.detection}"
