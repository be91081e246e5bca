"""Forward-progress guarantees for error-intensive operation.

ParaDox deliberately runs where errors are frequent, so the recovery
machinery must never turn a fault burst into a hard crash.  Without it
the engine simply ends a run as a livelock once total execution exceeds
its budget — a blunt instrument that abandons runs the hardware would
have saved.  The :class:`ForwardProgressGuard` replaces that with staged
escalation, mirroring what a real power-management unit would do when
the same checkpoint keeps rolling back:

1. **Shrink** — collapse the checkpoint window to its minimum via
   :meth:`~repro.checkpoint.CheckpointLengthController.force_minimum`,
   minimising the work wasted per attempt.
2. **Voltage** — step the supply back toward the margined safe point
   through :meth:`~repro.dvfs.VoltageController.escalate`.  Transient,
   voltage-dependent faults die off as the margin returns.
3. **Fail** — only when the storm persists *at the safe voltage* (the
   signature of a permanent defect, e.g. a stuck-at bit) does the guard
   surface a typed :class:`ForwardProgressFailure` carrying full
   diagnostics: the implicated checker, detection-channel histogram,
   fault-injection stats, persistent-fault descriptions and the recent
   voltage trace.

The guard observes *consecutive rollbacks of the same checkpoint*
(identified by the architectural instruction count at the checkpoint),
the precise signature of a run that is no longer making progress; any
clean commit or a rollback to a different checkpoint resets it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..checkpoint import CheckpointLengthController
from ..dvfs import VoltageController
from ..faults.injector import FaultInjector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..telemetry import Tracer


@dataclass(frozen=True)
class ResilienceConfig:
    """Escalation thresholds and quarantine policy."""

    #: Consecutive same-checkpoint rollbacks before the checkpoint window
    #: is collapsed to its minimum length.
    shrink_after: int = 3
    #: Consecutive rollbacks before voltage escalation begins (each
    #: further rollback escalates again until the supply is safe).
    escalate_after: int = 5
    #: Consecutive rollbacks, *with the supply already at the safe
    #: voltage*, before the guard declares forward-progress failure.
    fail_after: int = 12
    #: Per-escalation factor applied to the (safe - target) difference.
    voltage_escalation_factor: float = 0.5
    #: Vindicated false detections before a checker is quarantined.
    quarantine_vindications: int = 3
    #: Master switch for checker health tracking / quarantine.
    quarantine_enabled: bool = True


@dataclass
class EscalationEvent:
    """One guard action, recorded for reports and the campaign runner."""

    at_ns: float
    #: "shrink" | "voltage" | "fail"
    stage: str
    #: Architectural instruction count of the stuck checkpoint.
    checkpoint_instret: int
    #: Consecutive same-checkpoint rollbacks at the time of the action.
    streak: int
    #: Actual supply voltage at the time of the action (nominal if no DVS).
    voltage: float


@dataclass
class ForwardProgressDiagnostics:
    """Everything known about a run that could not make progress."""

    checkpoint_instret: int
    consecutive_rollbacks: int
    #: Checker core most often reporting the storm's detections (None if
    #: the storm came from main-core traps only).
    implicated_checker: Optional[int]
    #: Detection-channel value -> count within the storm.
    channel_counts: Dict[str, int] = field(default_factory=dict)
    #: Supply voltage when the failure was declared.
    voltage: float = 0.0
    at_safe_voltage: bool = True
    #: Tail of the (time_ns, voltage) trace covering the escalation.
    voltage_trace_tail: List[Tuple[float, float]] = field(default_factory=list)
    #: Injector counters at failure time (None when running fault-free).
    fault_stats: Optional[Dict[str, int]] = None
    #: Descriptions of permanent fault models known to the injector —
    #: the "named faulty unit" of a stuck-at diagnosis.
    suspected_faults: List[str] = field(default_factory=list)
    #: Checker cores already quarantined when the failure was declared.
    quarantined_checkers: List[int] = field(default_factory=list)

    def summary(self) -> str:
        parts = [
            f"no forward progress at instruction {self.checkpoint_instret} "
            f"after {self.consecutive_rollbacks} consecutive rollbacks "
            f"at {self.voltage:.3f} V"
            + (" (safe)" if self.at_safe_voltage else ""),
        ]
        if self.implicated_checker is not None:
            parts.append(f"implicated checker: {self.implicated_checker}")
        if self.suspected_faults:
            parts.append("suspected faults: " + "; ".join(self.suspected_faults))
        if self.quarantined_checkers:
            parts.append(
                "quarantined checkers: "
                + ", ".join(str(c) for c in self.quarantined_checkers)
            )
        return " | ".join(parts)


class ForwardProgressFailure(RuntimeError):
    """The run cannot progress even at the safe voltage (typed failure)."""

    def __init__(self, diagnostics: ForwardProgressDiagnostics) -> None:
        super().__init__(diagnostics.summary())
        self.diagnostics = diagnostics


class ForwardProgressGuard:
    """Watches rollbacks and escalates instead of livelocking."""

    def __init__(
        self,
        config: ResilienceConfig,
        length_controller: CheckpointLengthController,
        dvfs: Optional[VoltageController] = None,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.config = config
        self.length_controller = length_controller
        self.dvfs = dvfs
        self.injector = injector
        self.events: List[EscalationEvent] = []
        self._streak = 0
        self._instret: Optional[int] = None
        self._channels: Counter = Counter()
        self._checkers: Counter = Counter()
        #: Set by the engine so failure diagnostics can report quarantines.
        self.quarantined_provider = lambda: []
        #: Telemetry bus (set by the engine when tracing is enabled).
        self.tracer: Optional["Tracer"] = None

    def _trace_escalation(self, event: EscalationEvent) -> None:
        if self.tracer is None:
            return
        self.tracer.emit(
            "resilience",
            "escalation",
            time_ns=event.at_ns,
            value=event.voltage,
            detail=event.stage,
        )
        self.tracer.metrics.inc(f"resilience.escalations.{event.stage}")

    # -- state -------------------------------------------------------------------
    @property
    def streak(self) -> int:
        """Current consecutive same-checkpoint rollback count."""
        return self._streak

    def _reset(self) -> None:
        if self._streak > 0 and self.dvfs is not None:
            # Progress resumed: the escalated voltage may descend again.
            self.dvfs.release_hold()
        self._streak = 0
        self._instret = None
        self._channels.clear()
        self._checkers.clear()

    def on_progress(self) -> None:
        """Unconditional reset: the run is known to be moving again."""
        self._reset()

    def on_commit(self, end_instret: int) -> None:
        """A check committed clean up to ``end_instret``.

        Only a commit reaching *past* the stuck checkpoint counts as
        progress — older segments draining behind a storm do not.
        """
        if self._instret is None or end_instret > self._instret:
            self._reset()

    # -- escalation --------------------------------------------------------------
    def _voltage_now(self) -> float:
        if self.dvfs is not None:
            return self.dvfs.voltage
        return 0.0

    def _at_safe(self) -> bool:
        return self.dvfs is None or self.dvfs.at_safe_voltage

    def on_rollback(
        self,
        checkpoint_instret: int,
        now_ns: float,
        checker_id: Optional[int] = None,
        channel: Optional[str] = None,
    ) -> None:
        """Record a rollback; escalate or raise when the streak demands it.

        Raises :class:`ForwardProgressFailure` when the storm persists at
        the safe voltage — the caller propagates it to a typed
        :class:`~repro.stats.RunResult` outcome.
        """
        if checkpoint_instret != self._instret:
            self._reset()
            self._instret = checkpoint_instret
        self._streak += 1
        if channel is not None:
            self._channels[channel] += 1
        if checker_id is not None:
            self._checkers[checker_id] += 1

        config = self.config
        if self._streak == config.shrink_after:
            self.length_controller.force_minimum()
            event = EscalationEvent(
                now_ns, "shrink", checkpoint_instret, self._streak,
                self._voltage_now(),
            )
            self.events.append(event)
            self._trace_escalation(event)
        if self._streak >= config.escalate_after and self.dvfs is not None:
            if not self.dvfs.at_safe_voltage:
                self.dvfs.escalate(now_ns, config.voltage_escalation_factor)
                event = EscalationEvent(
                    now_ns, "voltage", checkpoint_instret, self._streak,
                    self._voltage_now(),
                )
                self.events.append(event)
                self._trace_escalation(event)
        if self._streak >= config.fail_after and self._at_safe():
            event = EscalationEvent(
                now_ns, "fail", checkpoint_instret, self._streak,
                self._voltage_now(),
            )
            self.events.append(event)
            self._trace_escalation(event)
            raise ForwardProgressFailure(self._diagnostics(checkpoint_instret))

    def on_budget_exhausted(self, instret: int, now_ns: float) -> None:
        """The engine's total execution budget ran out.

        A storm from a *permanent* defect does not have to pin one
        checkpoint: false detections from a pervasive stuck-at let the run
        crawl forward (retries on moments when the bit already holds the
        stuck value commit clean, resetting the streak), so the
        same-checkpoint escalation never reaches ``fail_after`` and the
        livelock budget trips first.  When the injector carries persistent
        fault models and the supply is already safe, that exhaustion *is*
        the permanent-defect signature — surface the typed failure with
        full diagnostics instead of letting the run end as a blunt
        livelock.  Transient storms (no persistent model, or
        still below the safe voltage) fall through untouched.
        """
        if self.injector is None or not self.injector.persistent_descriptions():
            return
        if not self._at_safe():
            return
        event = EscalationEvent(
            now_ns, "fail", instret, self._streak, self._voltage_now()
        )
        self.events.append(event)
        self._trace_escalation(event)
        raise ForwardProgressFailure(self._diagnostics(instret))

    def _diagnostics(self, checkpoint_instret: int) -> ForwardProgressDiagnostics:
        implicated: Optional[int] = None
        if self._checkers:
            implicated = self._checkers.most_common(1)[0][0]
        fault_stats: Optional[Dict[str, int]] = None
        suspected: List[str] = []
        if self.injector is not None:
            stats = self.injector.stats
            fault_stats = {
                "instruction_faults": stats.instruction_faults,
                "load_faults": stats.load_faults,
                "store_faults": stats.store_faults,
                "total": stats.total,
            }
            suspected = self.injector.persistent_descriptions()
        trace_tail: List[Tuple[float, float]] = []
        voltage = 0.0
        if self.dvfs is not None:
            trace_tail = list(self.dvfs.stats.trace[-32:])
            voltage = self.dvfs.voltage
        return ForwardProgressDiagnostics(
            checkpoint_instret=checkpoint_instret,
            consecutive_rollbacks=self._streak,
            implicated_checker=implicated,
            channel_counts=dict(self._channels),
            voltage=voltage,
            at_safe_voltage=self._at_safe(),
            voltage_trace_tail=trace_tail,
            fault_stats=fault_stats,
            suspected_faults=suspected,
            quarantined_checkers=sorted(self.quarantined_provider()),
        )
