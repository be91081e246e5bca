"""Checker-core model: functional re-execution plus in-order timing.

A checker core receives a closed log segment together with the
architectural state at the previous checkpoint, re-executes the segment's
instructions with loads served from the log, compares every store and the
final architectural state, and reports either success or a detection
(figure 7's channels).

Timing is in *checker cycles* (1 GHz domain): an in-order 4-stage scalar
pipeline retiring one instruction per cycle plus functional-unit latency
beyond one cycle, plus the analytic I-cache penalty of
:mod:`repro.cores.icache_model`.

``check_segment`` performs the full replay.  ``analytic_cycles`` computes
the timing alone from the segment's instruction histogram — used by the
engine's fast path when the fault injector guarantees no event can fire
within the segment (the replay of a correct segment by a correct checker
always passes, a property the test suite verifies against full replay).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

from ..config import CHECKER_FU_LATENCY, CheckerConfig
from ..isa import Executor, FunctionalUnit, SimTrap, StepInfo
from ..isa.state import ArchState
from ..lslog.detection import (
    CheckerException,
    CheckerTimeout,
    DetectionChannel,
    ErrorDetected,
    FinalStateMismatch,
)
from ..lslog.ports import CheckerReplayPort
from ..lslog.segment import LogSegment
from .icache_model import icache_penalty


class SegmentFaultHook(Protocol):
    """Fault-injection hooks a checker honours during replay.

    Implemented by :class:`repro.faults.injector.SegmentInjector`; all
    methods are optional no-ops in the fault-free case.
    """

    def before_instruction(self, state: ArchState, index: int) -> None:
        """Chance to corrupt architectural state before instruction ``index``."""
        ...

    def after_instruction(self, state: ArchState, info: StepInfo, index: int) -> None:
        """Chance to corrupt the destination of instruction ``index``."""
        ...

    def corrupt_load(self, op_index: int, value: int) -> int:
        """Map a logged load value to the (possibly corrupted) value seen."""
        ...

    def corrupt_store(self, op_index: int, value: int) -> int:
        """Map a logged store value to the (possibly corrupted) reference."""
        ...


@dataclass
class CheckResult:
    """Outcome of checking one segment."""

    #: None if the segment verified clean.
    detection: Optional[ErrorDetected]
    #: Instructions the checker actually executed before finishing/detecting.
    instructions_executed: int
    #: Checker-domain cycles consumed.
    checker_cycles: float

    @property
    def detected(self) -> bool:
        return self.detection is not None

    @property
    def channel(self) -> Optional[DetectionChannel]:
        return self.detection.channel if self.detection else None


#: Timeout margin: a checker that has not finished after this many times
#: the segment's instruction count is considered locked up (section II-B).
TIMEOUT_FACTOR = 4


class CheckerCore:
    """One checker core replaying one program.

    Occupancy is physical and lives in the
    :class:`~repro.scheduling.pool.CheckerPool`; ``core_id`` names the
    pool slot this replay model stands for.
    """

    def __init__(self, core_id: int, config: CheckerConfig, program) -> None:
        self.core_id = core_id
        self.config = config
        self.program = program
        self._latency = {unit: CHECKER_FU_LATENCY[unit.value] for unit in FunctionalUnit}
        #: Per-PC unit latency: static per instruction, so the replay
        #: loop indexes a list instead of hashing an enum per step.
        latency = self._latency
        self._latency_by_pc = [
            float(latency[instruction.unit]) for instruction in program.instructions
        ]
        self._icache_cpi = icache_penalty(program.text_bytes, config).cycles_per_instruction
        #: Histogram-keyed memo for :meth:`analytic_cycles`: loop-heavy
        #: workloads close many segments with identical histograms.
        self._analytic_cache: "dict[tuple, float]" = {}
        self.segments_checked: int = 0

    # -- timing -------------------------------------------------------------------
    def analytic_cycles(self, segment: LogSegment) -> float:
        """Checking cost from the instruction histogram (fast path)."""
        key = (
            segment.instruction_count,
            tuple(
                sorted(
                    (unit.value, count)
                    for unit, count in segment.unit_histogram.items()
                )
            ),
        )
        cached = self._analytic_cache.get(key)
        if cached is not None:
            return cached
        cycles = 0.0
        for unit, count in segment.unit_histogram.items():
            cycles += count * self._latency[unit]
        cycles += segment.instruction_count * self._icache_cpi
        if len(self._analytic_cache) >= 512:
            self._analytic_cache.clear()
        self._analytic_cache[key] = cycles
        return cycles

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles * self.config.cycle_ns

    # -- functional checking ------------------------------------------------------------
    def check_segment(
        self,
        segment: LogSegment,
        hook: Optional[SegmentFaultHook] = None,
    ) -> CheckResult:
        """Fully re-execute ``segment`` and compare against its log.

        The checker starts from a *copy* of the segment's starting
        architectural state, so detection never corrupts checkpoints.
        """
        if not segment.is_closed:
            raise ValueError(f"segment {segment.seq} is still filling")
        state = segment.start_state.snapshot()
        port = CheckerReplayPort(
            segment,
            load_corruptor=hook.corrupt_load if hook else None,
            store_corruptor=hook.corrupt_store if hook else None,
        )
        executor = Executor(self.program, state, port)
        target = segment.instruction_count
        budget = max(target * TIMEOUT_FACTOR, target + 64)
        cycles = 0.0
        executed = 0
        detection: Optional[ErrorDetected] = None
        latency_by_pc = self._latency_by_pc
        step = executor.step
        try:
            while executed < target and not state.halted:
                if hook is not None:
                    hook.before_instruction(state, executed)
                info = step()
                executed += 1
                cycles += latency_by_pc[info.pc_before]
                if hook is not None:
                    hook.after_instruction(state, info, executed - 1)
                if executed > budget:  # pragma: no cover - defensive
                    raise CheckerTimeout("checker exceeded budget", executed)
        except ErrorDetected as found:
            found.instruction_index = executed
            detection = found
        except SimTrap as trap:
            detection = CheckerException(
                f"checker trapped: {trap!r}", instruction_index=executed
            )
        else:
            # Final architectural state check.
            if not state.matches(segment.end_state):
                diff = state.divergence(segment.end_state)
                detection = FinalStateMismatch(
                    f"final state differs: {diff}", instruction_index=executed
                )
            elif not port.fully_consumed:
                detection = FinalStateMismatch(
                    "log not fully consumed at final check", instruction_index=executed
                )
        cycles += executed * self._icache_cpi
        self.segments_checked += 1
        return CheckResult(detection, executed, cycles)
