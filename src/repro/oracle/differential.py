"""Three-way differential execution oracle.

Runs one workload through the three execution layers that must agree and
diffs the *full* architectural state at every checkpoint boundary:

1. the golden-model :class:`~repro.oracle.reference.ReferenceISS`;
2. the production :class:`~repro.isa.executor.Executor` behind a
   :class:`~repro.lslog.ports.MainMemoryPort`, filling real log segments
   exactly as the engine's fill loop does (close on target length, log
   capacity, unchecked-line conflict, or halt; a trap closes the segment
   too, and the reference must then raise the same trap).  Like the
   fill loop it runs the compiled tier's record regions, the code the
   protected engine binds, and commits every retired instruction to a
   main-core timing model before recording it;
3. a fault-free checker replay of every closed segment — both the
   production :meth:`~repro.cores.checker_core.CheckerCore.check_segment`
   path (3a: its detection channels must stay silent; like the engine's
   checker it runs the compiled tier's commit-only regions) and a raw,
   always interpreted :class:`~repro.lslog.ports.CheckerReplayPort`
   re-execution (3b) whose final state is compared against the
   reference *including* ``instret``, which the engine's own
   ``ArchState.matches`` does not compare; a detection the raw replay's
   port raises is a ``replay`` divergence too.

The engine's fast path skips functional replay entirely when no fault
can fire, so replay bugs are invisible in fault-free production runs;
this runner exists to force the full replay and compare every field:
x/f registers, flags, pc, instret, halted, the syscall output stream,
and a digest of the nonzero memory image.

The first divergence is reported with the segment, the offending field,
both values, and a trace window of the last instructions retired,
compiled or interpreted — the program-level minimisation (shrinking)
lives in :mod:`repro.oracle.fuzzer`.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from ..config import SystemConfig, table1_config
from ..cores.branch_predictor import TournamentPredictor
from ..cores.checker_core import CheckerCore
from ..cores.main_core import MainCoreTiming
from ..isa import ArchState, Executor, MemoryImage
from ..isa.decode import decode_table
from ..isa.errors import SimTrap
from ..jit import SuperblockJit
from ..lslog.detection import ErrorDetected
from ..lslog.ports import CheckerReplayPort, MainMemoryPort, UncheckedConflictStall
from ..lslog.segment import (
    LogSegment,
    RollbackGranularity,
    SegmentCloseReason,
    SegmentFull,
)
from ..memory.cache import MemoryHierarchy
from ..memory.unchecked import UncheckedLineTracker
from .reference import ReferenceISS

#: Retired instructions kept for the divergence trace window.
TRACE_WINDOW = 32


def memory_digest(words: Dict[int, int]) -> str:
    """Stable digest of a nonzero word map (order-independent)."""
    hasher = hashlib.sha256()
    for address in sorted(words):
        value = words[address]
        if value:
            hasher.update(address.to_bytes(8, "little"))
            hasher.update(value.to_bytes(8, "little"))
    return hasher.hexdigest()[:16]


@dataclass
class Divergence:
    """First observed disagreement between two execution layers."""

    #: Which comparison failed: ``"executor"`` (reference vs main core),
    #: ``"replay"`` (reference vs raw checker replay, or a detection
    #: its replay port raised) or ``"checker"`` (the production
    #: check_segment reported a detection).
    stage: str
    segment_seq: int
    #: Retired-instruction count at the checkpoint boundary.
    instret: int
    #: The diverging field: ``x5``, ``f3``, ``flags``, ``pc``,
    #: ``instret``, ``halted``, ``output``, ``memory`` or ``detection``.
    field: str
    expected: str
    actual: str
    #: Last instructions the main core retired before the boundary.
    trace: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "stage": self.stage,
            "segment": self.segment_seq,
            "instret": self.instret,
            "field": self.field,
            "expected": self.expected,
            "actual": self.actual,
            "trace": list(self.trace),
        }

    def describe(self) -> str:
        return (
            f"[{self.stage}] segment {self.segment_seq} @ instret "
            f"{self.instret}: {self.field} expected {self.expected}, "
            f"got {self.actual}"
        )


@dataclass
class DiffReport:
    """Outcome of one differential run."""

    workload: str
    granularity: str
    instructions: int = 0
    segments: int = 0
    checkpoints: int = 0
    divergence: Optional[Divergence] = None

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def to_dict(self) -> Dict:
        return {
            "workload": self.workload,
            "granularity": self.granularity,
            "instructions": self.instructions,
            "segments": self.segments,
            "checkpoints": self.checkpoints,
            "ok": self.ok,
            "divergence": self.divergence.to_dict() if self.divergence else None,
        }


class DifferentialRunner:
    """Drive one workload through all three layers, comparing as it goes."""

    def __init__(
        self,
        workload,
        granularity: RollbackGranularity = RollbackGranularity.LINE,
        checkpoint_interval: int = 61,
        config: Optional[SystemConfig] = None,
        tracer=None,
        use_jit: bool = True,
    ) -> None:
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be positive")
        self.workload = workload
        self.granularity = granularity
        self.checkpoint_interval = checkpoint_interval
        self.config = config if config is not None else table1_config()
        #: Optional :class:`repro.telemetry.Tracer`; oracle events are
        #: emitted at checkpoint granularity only.
        self.tracer = tracer
        #: Execute the device-under-test layer through the compiled
        #: superblock tier's record regions (default), the code the
        #: protected engine's fill loop binds, and the production
        #: checker replay (stage 3a) through its commit-only regions,
        #: as the engine's checker does.  This makes every differential
        #: run an interpreter-vs-compiled-vs-reference equivalence
        #: check: the reference ISS and the raw replay (stage 3b) stay
        #: structurally independent of the tier, so a miscompiled block
        #: diverges at the next checkpoint.  ``--no-jit`` is the escape
        #: hatch that pins a divergence on the tier (or exonerates it).
        self.use_jit = use_jit

    # -- internals ------------------------------------------------------------
    def _open_segment(self, seq: int, start: ArchState) -> LogSegment:
        return LogSegment(
            seq=seq,
            granularity=self.granularity,
            capacity_bytes=self.config.checker.log_bytes_per_core,
            start_state=start,
        )

    @staticmethod
    def _compare(
        ref: ReferenceISS,
        state: ArchState,
        memory_words: Optional[Dict[int, int]],
    ) -> Optional[tuple]:
        """First differing field between the reference and ``state``.

        Returns ``(field, expected, actual)`` or None.  ``memory_words``
        is the production memory's word dict (or None to skip memory).
        """
        if state.pc != ref.pc:
            return ("pc", str(ref.pc), str(state.pc))
        if state.halted != ref.halted:
            return ("halted", str(ref.halted), str(state.halted))
        if state.instret != ref.instret:
            return ("instret", str(ref.instret), str(state.instret))
        for index in range(32):
            if state.regs.x[index] != ref.x[index]:
                return (
                    f"x{index}",
                    f"{ref.x[index]:#018x}",
                    f"{state.regs.x[index]:#018x}",
                )
        for index in range(16):
            if state.regs.f[index] != ref.f[index]:
                return (
                    f"f{index}",
                    f"{ref.f[index]:#018x}",
                    f"{state.regs.f[index]:#018x}",
                )
        if state.regs.flags != ref.flags:
            return ("flags", f"{ref.flags:04b}", f"{state.regs.flags:04b}")
        if state.output != ref.output:
            return ("output", repr(ref.output[-3:]), repr(state.output[-3:]))
        if memory_words is not None:
            mine = {a: v for a, v in memory_words.items() if v}
            theirs = ref.memory_words()
            if mine != theirs:
                return (
                    "memory",
                    memory_digest(theirs),
                    memory_digest(mine),
                )
        return None

    # -- the run --------------------------------------------------------------
    def run(self, max_instructions: Optional[int] = None) -> DiffReport:
        workload = self.workload
        budget = (
            max_instructions
            if max_instructions is not None
            else workload.max_instructions
        )
        report = DiffReport(
            workload=workload.name, granularity=self.granularity.value
        )

        config = self.config
        program = workload.program
        memory: MemoryImage = workload.create_memory()
        tracker = UncheckedLineTracker(config.memory.l1d)
        port = MainMemoryPort(memory, tracker, self.granularity)
        state = ArchState()
        executor = Executor(program, state, port)
        # The fill loop's timing model: blocks and interpreted steps
        # commit to it in the same order as in the protected engine.
        commit = MainCoreTiming(
            config.main_core,
            MemoryHierarchy(config),
            TournamentPredictor(config.branch_predictor),
            program,
        ).commit
        checker = CheckerCore(config.checker, program, jit=self.use_jit)
        table = decode_table(program)
        unit_index = table.unit_index
        writes_register = table.writes_register
        ref = ReferenceISS(
            program,
            initial_words=workload.initial_words,
            memory_size=memory.size,
        )

        jit = None
        if self.use_jit:
            jit = SuperblockJit(program, state, port, commit, record=True)

        # PCs of the last instructions retired, compiled or interpreted:
        # a block, raising or not, is straight-line code up to its
        # closing branch, so it retired ``pc`` .. ``pc + ran - 1``.
        trace: Deque[int] = deque(maxlen=TRACE_WINDOW)
        seq = 1
        segment = self._open_segment(seq, state.snapshot())
        port.segment = segment
        if jit is not None:
            jit.note_segment(segment)

        def diverge(stage: str, found: tuple) -> None:
            report.divergence = Divergence(
                stage=stage,
                segment_seq=segment.seq,
                instret=state.instret,
                field=found[0],
                expected=found[1],
                actual=found[2],
                trace=[f"{pc}: {program.instructions[pc]}" for pc in trace],
            )
            if self.tracer is not None:
                self.tracer.emit(
                    "oracle",
                    "divergence",
                    segment=segment.seq,
                    detail=f"{stage}:{found[0]}",
                )

        def close_and_check(reason: SegmentCloseReason) -> bool:
            """Close the filling segment, cross-check it, commit it.

            Returns False when a divergence ended the run.
            """
            nonlocal seq, segment
            segment.close(state.snapshot(), reason)
            report.segments += 1
            report.checkpoints += 1

            # 1. Advance the golden model to the same boundary.  The
            # production executor retired these instructions without a
            # trap, so a reference trap is itself a divergence.
            try:
                for _ in range(segment.instruction_count):
                    ref.step()
            except SimTrap as trap:
                diverge(
                    "executor",
                    ("trap", "no trap", f"reference trapped: {trap!r}"),
                )
                return False

            # 2. Reference vs main core, memory included.
            found = self._compare(ref, state, memory.words)
            if found is not None:
                diverge("executor", found)
                return False

            # 3a. Production checker path: fault-free replay through the
            # real detection channels must stay silent.
            result = checker.check_segment(segment)
            if result.detected:
                diverge(
                    "checker",
                    (
                        "detection",
                        "clean replay",
                        f"{result.detection.channel.value}: {result.detection}",
                    ),
                )
                return False

            # 3b. Raw replay whose final state we can inspect: compare
            # against the reference including instret, which the
            # production final-state check does not cover.  It always
            # interprets, so it stays independent of the tier.
            replay_state = segment.start_state.snapshot()
            replay_port = CheckerReplayPort(segment)
            replay_exec = Executor(program, replay_state, replay_port)
            try:
                for _ in range(segment.instruction_count):
                    replay_exec.step()
            except SimTrap as trap:
                diverge(
                    "replay", ("trap", "no trap", f"replay trapped: {trap!r}")
                )
                return False
            except ErrorDetected as found:
                diverge(
                    "replay",
                    (
                        "detection",
                        "clean replay",
                        f"{found.channel.value}: {found}",
                    ),
                )
                return False
            found = self._compare(ref, replay_state, None)
            if found is not None:
                diverge("replay", found)
                return False
            if not replay_port.fully_consumed:
                diverge(
                    "replay",
                    (
                        "log",
                        "fully consumed",
                        f"{replay_port.load_index}/{len(segment.loads)} loads, "
                        f"{replay_port.store_index}/{len(segment.store_addrs)} "
                        f"stores",
                    ),
                )
                return False

            if self.tracer is not None:
                self.tracer.emit(
                    "oracle",
                    "checkpoint",
                    segment=segment.seq,
                    value=float(segment.instruction_count),
                    detail=reason.value,
                )

            # Commit: the segment checked clean, release its lines.
            tracker.release_through(segment.seq)
            seq += 1
            segment = self._open_segment(seq, state.snapshot())
            port.segment = segment
            if jit is not None:
                jit.note_segment(segment)
            return True

        interval = self.checkpoint_interval
        while not state.halted and (before := state.instret) < budget:
            pc = state.pc
            limit = min(interval - segment.instruction_count, budget - before)
            try:
                ran = jit.run_block(limit) if jit is not None else 0
                if not ran:
                    info = executor.step()
            except (SegmentFull, UncheckedConflictStall, SimTrap) as exc:
                # A raising block keeps instret exact up to the raising
                # instruction; a raising step retires nothing.
                ran = state.instret - before
                report.instructions += ran
                trace.extend(range(pc, pc + ran))
                if isinstance(exc, SegmentFull):
                    if not close_and_check(SegmentCloseReason.LOG_CAPACITY):
                        return report
                    continue
                if isinstance(exc, UncheckedConflictStall):
                    # Committing the closed segment releases every
                    # unchecked line, so the retried store cannot
                    # conflict again.
                    if not close_and_check(SegmentCloseReason.EVICTION_CONFLICT):
                        return report
                    continue
                # The program itself traps: check what retired before
                # it, then the reference must trap on the same
                # instruction with the same trap.
                if segment.instruction_count > 0 and not close_and_check(
                    SegmentCloseReason.PROGRAM_END
                ):
                    return report
                try:
                    ref.step()
                    expected = "no trap"
                except SimTrap as ref_trap:
                    expected = repr(ref_trap)  # class name and message
                if expected != repr(exc):
                    diverge("executor", ("trap", expected, repr(exc)))
                return report
            if not ran:
                commit(pc, info.address, info.taken, info.pc_after)
                segment.record_instruction(unit_index[pc], writes_register[pc])
                ran = 1
            report.instructions += ran
            trace.extend(range(pc, pc + ran))
            if segment.instruction_count >= interval:
                if not close_and_check(SegmentCloseReason.TARGET_LENGTH):
                    return report

        if segment.instruction_count > 0:
            close_and_check(SegmentCloseReason.PROGRAM_END)
        return report


def diff_workload(
    workload,
    granularity: RollbackGranularity = RollbackGranularity.LINE,
    checkpoint_interval: int = 61,
    max_instructions: Optional[int] = None,
    config: Optional[SystemConfig] = None,
    tracer=None,
    use_jit: bool = True,
) -> DiffReport:
    """Convenience wrapper: one differential run over ``workload``."""
    runner = DifferentialRunner(
        workload,
        granularity=granularity,
        checkpoint_interval=checkpoint_interval,
        config=config,
        tracer=tracer,
        use_jit=use_jit,
    )
    return runner.run(max_instructions=max_instructions)
