"""Run-level statistics and result records.

A :class:`RunResult` is what every system's ``run()`` returns: enough to
regenerate each of the paper's figures without re-simulating — per-event
recovery costs (figure 9), segment/stall accounting (figure 10), the
voltage trace (figure 11), checker wake rates (figure 12), and the inputs
the power model needs (figure 13).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..lslog.detection import DetectionChannel
from ..lslog.segment import SegmentCloseReason

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..resilience.guard import EscalationEvent, ForwardProgressDiagnostics
    from ..resilience.health import QuarantineEvent


class RunOutcome(enum.Enum):
    """How a simulated run ended — explicit, so callers stop inferring
    failure from instruction counts."""

    #: The program ran to completion (possibly after many recoveries).
    COMPLETED = "completed"
    #: Execution exceeded the livelock budget — either no forward-progress
    #: guard was configured (legacy behaviour), or waste accumulated across
    #: many checkpoints without any single one storming long enough to
    #: trigger escalation.
    LIVELOCK = "livelock"
    #: The forward-progress guard escalated to the safe voltage and the
    #: fault persisted: a typed failure with diagnostics attached.
    FORWARD_PROGRESS_FAILURE = "forward_progress_failure"


@dataclass
class RecoveryEvent:
    """One detected error and its recovery cost (figure 4's anatomy)."""

    segment_seq: int
    channel: DetectionChannel
    #: Wall-clock time of detection.
    detect_ns: float
    #: Execution since the start of the faulty segment that must be redone
    #: ("Re-run" in figure 4): wasted work attributable to this error.
    wasted_execution_ns: float
    #: Time spent walking the log restoring old values.
    rollback_ns: float
    #: Log entries restored (words for ParaMedic, lines for ParaDox).
    rollback_entries: int
    #: Segments rolled back (faulty segment through newest).
    segments_rolled_back: int


class StallBucket(enum.Enum):
    """Why the main core stalled.

    Every stall the engine injects must name one of these buckets; the
    accounting in :class:`StallBreakdown` is total by construction, so a
    stall can never silently vanish from ``total_ns`` the way unknown
    string buckets once did.
    """

    #: All checkers busy at a checkpoint boundary.
    CHECKER_WAIT = "checker"
    #: Unchecked-line eviction conflicts.
    CONFLICT = "conflict"
    #: 16-cycle register checkpoint blocks.
    CHECKPOINT = "checkpoint"
    #: Walking the log on recovery.
    ROLLBACK = "rollback"
    #: Waiting for in-flight checks to drain (end of run / quarantine).
    DRAIN = "drain"


@dataclass
class StallBreakdown:
    """Where the main core lost time, in wall nanoseconds."""

    checker_wait_ns: float = 0.0
    conflict_ns: float = 0.0
    checkpoint_ns: float = 0.0
    rollback_ns: float = 0.0
    drain_ns: float = 0.0

    def add(self, bucket: StallBucket, wall_ns: float) -> None:
        """Accumulate a stall into its bucket; total by construction."""
        if bucket is StallBucket.CHECKER_WAIT:
            self.checker_wait_ns += wall_ns
        elif bucket is StallBucket.CONFLICT:
            self.conflict_ns += wall_ns
        elif bucket is StallBucket.CHECKPOINT:
            self.checkpoint_ns += wall_ns
        elif bucket is StallBucket.ROLLBACK:
            self.rollback_ns += wall_ns
        elif bucket is StallBucket.DRAIN:
            self.drain_ns += wall_ns
        else:  # a new enum member without a field is a bug, not a no-op
            raise ValueError(f"unmapped stall bucket {bucket!r}")

    @property
    def total_ns(self) -> float:
        return (
            self.checker_wait_ns
            + self.conflict_ns
            + self.checkpoint_ns
            + self.rollback_ns
            + self.drain_ns
        )


@dataclass
class RunResult:
    """Complete outcome of simulating one workload on one system."""

    system: str
    workload: str
    #: Total wall-clock time, including all recovery.
    wall_ns: float
    #: Committed (useful) instructions — re-runs excluded.
    instructions: int
    #: Total instructions executed by the main core including wasted re-runs.
    instructions_executed: int
    segments: int
    recoveries: List[RecoveryEvent] = field(default_factory=list)
    stalls: StallBreakdown = field(default_factory=StallBreakdown)
    close_reasons: Dict[SegmentCloseReason, int] = field(default_factory=dict)
    #: Per-checker-core wake rate (fraction of wall time awake).
    checker_wake_rates: List[float] = field(default_factory=list)
    checker_peak_concurrency: int = 0
    #: (time_ns, voltage) checkpoint-granularity trace (empty without DVS).
    voltage_trace: List["tuple[float, float]"] = field(default_factory=list)
    #: Time-weighted mean supply voltage over the run (nominal if no DVS).
    mean_voltage: float = 0.0
    highest_error_voltage: float = 0.0
    #: Faults actually injected.
    faults_injected: int = 0
    #: Output the program produced (verified against the golden run).
    program_output: List["tuple[int, str]"] = field(default_factory=list)
    #: Mean checkpoint length in instructions.
    mean_checkpoint_length: float = 0.0
    final_checkpoint_target: int = 0
    #: How the run ended; COMPLETED unless the engine aborted.
    outcome: RunOutcome = RunOutcome.COMPLETED
    #: Diagnostics attached when ``outcome`` is FORWARD_PROGRESS_FAILURE.
    failure: Optional["ForwardProgressDiagnostics"] = None
    #: Checker cores pulled from service by the health tracker.
    quarantine_events: List["QuarantineEvent"] = field(default_factory=list)
    #: Forward-progress guard actions (shrink / voltage / fail stages).
    escalations: List["EscalationEvent"] = field(default_factory=list)
    #: Externally visible writes (WRITE_EXTERNAL syscalls) performed,
    #: each after draining all outstanding checks: (wall_ns, text).
    external_flushes: List["tuple[float, str]"] = field(default_factory=list)
    #: Executed instructions per functional-unit class (including wasted
    #: re-execution) — input to activity-based energy accounting.
    unit_mix: Dict[str, int] = field(default_factory=dict)
    #: Telemetry metrics summary (``MetricsRegistry.to_dict()``), present
    #: only when the run was traced (``EngineOptions.tracing``).  Plain
    #: dicts, so the result pickles cheaply across worker processes.
    metrics: Optional[Dict] = None
    #: Telemetry event stream (compact ``TraceEvent.to_dict()`` records,
    #: time-ordered), present only when the run was traced.
    trace: Optional[List[Dict]] = None

    # -- derived metrics ------------------------------------------------------------
    @property
    def livelocked(self) -> bool:
        """The run was abandoned because recovery stopped making progress
        (executed instructions exceeded the livelock budget)."""
        return self.outcome is RunOutcome.LIVELOCK

    @property
    def errors_detected(self) -> int:
        return len(self.recoveries)

    @property
    def ipc_aggregate(self) -> float:
        """Useful instructions per wall nanosecond (not per cycle)."""
        return self.instructions / self.wall_ns if self.wall_ns else 0.0

    @property
    def wasted_execution_ns(self) -> float:
        return sum(event.wasted_execution_ns for event in self.recoveries)

    @property
    def rollback_ns(self) -> float:
        return sum(event.rollback_ns for event in self.recoveries)

    def mean_wasted_execution_ns(self) -> Optional[float]:
        if not self.recoveries:
            return None
        return self.wasted_execution_ns / len(self.recoveries)

    def mean_rollback_ns(self) -> Optional[float]:
        if not self.recoveries:
            return None
        return self.rollback_ns / len(self.recoveries)

    def slowdown_vs(self, baseline: "RunResult") -> float:
        """Wall-time ratio against a baseline run of the same workload."""
        if baseline.wall_ns <= 0:
            raise ValueError("baseline has no wall time")
        return self.wall_ns / baseline.wall_ns

    def summary(self) -> str:
        """One-paragraph human-readable digest."""
        lines = [
            f"{self.system} / {self.workload}: {self.instructions} instructions "
            f"in {self.wall_ns / 1e6:.3f} ms ({self.segments} segments)",
            f"  errors detected: {self.errors_detected}, faults injected: "
            f"{self.faults_injected}",
            f"  stalls: checker-wait {self.stalls.checker_wait_ns / 1e3:.1f} us, "
            f"conflict {self.stalls.conflict_ns / 1e3:.1f} us, "
            f"checkpoint {self.stalls.checkpoint_ns / 1e3:.1f} us, "
            f"rollback {self.stalls.rollback_ns / 1e3:.1f} us, "
            f"drain {self.stalls.drain_ns / 1e3:.1f} us",
        ]
        if self.recoveries:
            lines.append(
                f"  mean recovery: wasted {self.mean_wasted_execution_ns() / 1e3:.2f} us"
                f" + rollback {self.mean_rollback_ns() / 1e3:.2f} us"
            )
        if self.voltage_trace:
            lines.append(f"  mean voltage: {self.mean_voltage:.3f} V")
        if self.outcome is not RunOutcome.COMPLETED:
            detail = f"  outcome: {self.outcome.value}"
            if self.failure is not None:
                detail += f" ({self.failure.summary()})"
            lines.append(detail)
        if self.quarantine_events:
            quarantined = ", ".join(str(e.core_id) for e in self.quarantine_events)
            lines.append(f"  quarantined checkers: {quarantined}")
        if self.escalations:
            stages = {}
            for event in self.escalations:
                stages[event.stage] = stages.get(event.stage, 0) + 1
            lines.append(
                "  escalations: "
                + ", ".join(f"{stage} x{count}" for stage, count in stages.items())
            )
        return "\n".join(lines)
