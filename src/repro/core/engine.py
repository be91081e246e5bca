"""The heterogeneous fault-tolerance simulation engine.

Orchestrates one main core plus its pool of checker cores over a single
workload, reproducing the ParaMedic/ParaDox execution model:

1. The main core executes instructions functionally (exact architectural
   semantics) while the out-of-order timing model assigns commit cycles,
   and every load/store is recorded into the currently filling log
   segment.
2. A segment closes when it reaches the AIMD target length, fills its
   log SRAM, hits an unchecked-line eviction conflict, or the program
   ends.  Closing takes a register checkpoint (16 commit-blocked cycles)
   and dispatches the segment to a checker core chosen by the scheduling
   policy — stalling the main core if all checkers are busy.
3. Checker cores re-execute their segment against the log.  The fault
   injector corrupts checker state/log data (or main-core state when so
   targeted).  A divergence surfaces through one of the detection
   channels at a known point of checker execution.
4. On detection the main core stops, every store back to the faulty
   segment's start is reverted from the log (word- or line-granularity),
   architectural state is restored, and execution re-runs.  Checkpoint
   length, and optionally supply voltage and frequency, adapt.

Wall-clock time is continuous nanoseconds.  The main core's cycle count
maps to wall time through the *current* frequency, which the DVFS
controller may change at checkpoint boundaries; checker cores always run
at their own fixed clock.

The engine is deliberately single-main-core, like the paper's evaluation
("we do not test here on multicore workloads"), but models the L1
buffering of unchecked stores that multicore correctness requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..checkpoint import CheckpointLengthController, LengthEvent
from ..config import SystemConfig
from ..cores.branch_predictor import TournamentPredictor
from ..cores.checker_core import CheckResult, CheckerCore
from ..cores.main_core import MainCoreTiming
from ..dvfs import VoltageController
from ..faults.injector import FaultInjector
from ..faults.voltage_model import VoltageErrorModel
from ..isa import Executor, MemoryImage, Program, SimTrap
from ..isa.decode import decode_table
from ..isa.state import ArchState
from ..jit import SuperblockJit
from ..lslog.detection import DetectionChannel
from ..lslog.ports import MainMemoryPort, UncheckedConflictStall
from ..lslog.rollback import rollback_memory
from ..lslog.segment import (
    LogSegment,
    RollbackGranularity,
    SegmentCloseReason,
    SegmentFull,
)
from ..memory.cache import MemoryHierarchy
from ..memory.unchecked import UncheckedLineTracker
from ..resilience.guard import (
    ForwardProgressDiagnostics,
    ForwardProgressFailure,
    ForwardProgressGuard,
    ResilienceConfig,
)
from ..resilience.health import CheckerHealthTracker
from ..scheduling import CheckerPool, DispatchRecord, SchedulingPolicy, SharedPoolView
from ..stats import RecoveryEvent, RunOutcome, RunResult, StallBreakdown, StallBucket
from ..telemetry import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..oracle.invariants import ParanoidChecker

#: How far below a pending detection's maturing cycle compiled blocks
#: stop (see ``SimulationEngine._sync_detection_bound``).
DETECTION_MARGIN_CYCLES = 1.0


@dataclass
class PendingCheck:
    """A dispatched segment whose check has not yet committed."""

    segment: LogSegment
    record: DispatchRecord
    result: CheckResult
    #: Wall time the checker finishes (or detects).
    end_ns: float


@dataclass
class EngineOptions:
    """Behavioural switches distinguishing the four systems."""

    granularity: RollbackGranularity = RollbackGranularity.LINE
    scheduling: SchedulingPolicy = SchedulingPolicy.LOWEST_FREE_ID
    adaptive_checkpoints: bool = True
    #: Enable checker cores at all (False = unprotected baseline).
    checking: bool = True
    #: Enable the dynamic voltage controller (ParaDox DVS mode).
    dvs: bool = False
    #: With dvs, the fault rate follows the voltage through this model.
    voltage_model: Optional[VoltageErrorModel] = None
    #: Skip functional replay of segments in which no fault can fire.
    fastpath: bool = True
    #: End the run as RunOutcome.LIVELOCK when total executed
    #: instructions exceed this multiple of the useful budget.
    livelock_factor: float = 64.0
    #: Use the constant voltage-decrease comparator of figure 11.
    dynamic_voltage_decrease: bool = True
    #: Record a structured :class:`repro.telemetry.Tracer` event stream
    #: plus a metrics registry, returned on ``RunResult.trace`` /
    #: ``RunResult.metrics`` and exportable as JSONL or Perfetto JSON.
    #: Disabled (the default) costs nothing: no tracer object exists and
    #: every emission site is one ``is not None`` test at segment
    #: granularity.
    tracing: bool = False
    #: Enable the resilience layer: forward-progress escalation instead
    #: of livelock aborts, plus checker health tracking and quarantine.
    #: None preserves the legacy detect-and-rollback-or-die behaviour.
    resilience: Optional[ResilienceConfig] = None
    #: Re-derive and assert engine bookkeeping invariants (segment seq
    #: monotonicity, tracker/segment agreement, quarantine consistency,
    #: DVFS bounds) at segment granularity, raising
    #: :class:`repro.oracle.invariants.EngineInvariantError` on the
    #: first violation.  Disabled (the default) costs nothing: no
    #: checker object exists and every hook site is one ``is not None``
    #: test at segment granularity, exactly like ``tracing``.
    paranoid: bool = False
    #: Drive main-core execution through the compiled superblock tier
    #: (:mod:`repro.jit`) wherever the fill loop's per-instruction
    #: obligations allow, falling back to the interpreter at block
    #: exits, traps, segment boundaries and external syscalls.  ``run``
    #: builds one tier for either path, and both loops enter it only
    #: through :meth:`~repro.jit.tier.SuperblockJit.run_block`, passing
    #: the instructions they may run before they must look again; the
    #: fill loop also passes the commit cycle at which the earliest
    #: pending detection may mature, so blocks keep running while
    #: checks are in flight and stop where the interpreter would handle
    #: the detection.  Timing, stall accounting and telemetry are
    #: bit-identical either way (the differential oracle gates this);
    #: disable to force pure interpretation.  The main core ignores it
    #: — its tier is never built — when a fault injector targets the
    #: main core, because injection points are per-instruction hooks
    #: that must see every retired instruction.  Checker replay follows
    #: it too: the checker runs the tier's commit-only regions wherever
    #: no fault model can fire (see :mod:`repro.cores.checker_core`),
    #: with results bit-identical to per-instruction replay.
    jit: bool = True


class SimulationEngine:
    """Run one workload on one configuration of the architecture."""

    def __init__(
        self,
        program: Program,
        config: SystemConfig,
        options: EngineOptions,
        injector: Optional[FaultInjector] = None,
        memory: Optional[MemoryImage] = None,
        system_name: str = "system",
        rng: Optional[np.random.Generator] = None,
        pool: Optional[CheckerPool] = None,
        main_id: int = 0,
    ) -> None:
        self.program = program
        #: Which main core this engine models (0 for a private pool; the
        #: multicore harness numbers the producers of a shared pool).
        self.main_id = main_id
        self.config = config
        self.options = options
        self.injector = injector
        self.system_name = system_name
        self.memory = memory if memory is not None else MemoryImage()
        self.rng = rng if rng is not None else np.random.default_rng(config.fault.seed)

        # Main core.
        self.state = ArchState()
        self.hierarchy = MemoryHierarchy(config)
        self.predictor = TournamentPredictor(config.branch_predictor)
        self.timing = MainCoreTiming(
            config.main_core, self.hierarchy, self.predictor, program=program
        )
        self.tracker = UncheckedLineTracker(config.memory.l1d)
        self.port = MainMemoryPort(self.memory, self.tracker, options.granularity)
        self.executor = Executor(program, self.state, self.port)
        #: Compiled superblock tier for the main core; built at run()
        #: time (with checkers it records into the segment log, without
        #: them it binds the raw memory image) and None when disabled or
        #: under main-core fault injection.
        self.jit: Optional[SuperblockJit] = None

        # Checker pool.  Occupancy is physical and lives in the pool: a
        # multicore harness passes the one it shares between its mains,
        # otherwise the engine builds its private pool, the M=1 case.  Replay is
        # program-bound, so the engine owns the one replay model every
        # checker core runs and its health view of the cores
        # (resilience layer).
        self.pool: Optional[CheckerPool] = None
        #: What select/dispatch/abort go through: the pool itself, or a
        #: view that takes the co-simulation turn for this main.
        self.scheduler: "Optional[CheckerPool | SharedPoolView]" = None
        self.checker: Optional[CheckerCore] = None
        self.health: Optional[CheckerHealthTracker] = None
        #: Checker of the previous dispatch, stored at the end of each
        #: log segment for continuity (figure 5).
        self._last_checker_id: Optional[int] = None
        if options.checking:
            if pool is None:
                pool = CheckerPool(
                    config.checker.count,
                    options.scheduling,
                    boot_offset=int(self.rng.integers(config.checker.count)),
                )
            elif options.scheduling is not pool.scheduling:
                raise ValueError(
                    f"system {system_name!r} schedules its checkers "
                    f"{options.scheduling.value} but its pool schedules "
                    f"{pool.scheduling.value} (a shared pool arbitrates "
                    "lowest-free-ID only)"
                )
            if not 0 <= main_id < pool.main_count:
                raise ValueError(
                    f"main core {main_id} is not one of the pool's "
                    f"{pool.main_count} main cores"
                )
            self.pool = pool
            self.scheduler = (
                pool if pool.turnstile is None else SharedPoolView(pool, main_id)
            )
            self.checker = CheckerCore(config.checker, program, jit=options.jit)
            if options.resilience is not None and options.resilience.quarantine_enabled:
                self.health = CheckerHealthTracker(
                    len(pool),
                    quarantine_vindications=options.resilience.quarantine_vindications,
                )

        # Controllers.
        self.length_controller = CheckpointLengthController(
            config.checkpoint, adaptive=options.adaptive_checkpoints
        )
        self.dvfs: Optional[VoltageController] = None
        if options.dvs and options.checking:
            self.dvfs = VoltageController(
                config.dvfs,
                config.main_core.frequency_hz,
                dynamic_decrease=options.dynamic_voltage_decrease,
            )

        # Forward-progress guard (resilience layer).
        self.guard: Optional[ForwardProgressGuard] = None
        if options.resilience is not None and options.checking:
            self.guard = ForwardProgressGuard(
                options.resilience,
                self.length_controller,
                dvfs=self.dvfs,
                injector=self.injector,
            )
            if self.health is not None:
                health = self.health
                self.guard.quarantined_provider = lambda: health.quarantined

        # Time anchors: wall(cycles) = base_wall + (cycles - base_cycles) * cycle_ns.
        self._frequency_hz = config.main_core.frequency_hz
        self._cycle_ns = 1e9 / self._frequency_hz
        self._base_cycles = 0.0
        self._base_wall_ns = 0.0

        # Segment bookkeeping.
        self._next_seq = 1
        self._segment: Optional[LogSegment] = None
        self._pending: List[PendingCheck] = []
        #: The pending detection that lands first (ties: the oldest), or
        #: None.  Detections enter ``_pending`` only at dispatch and leave
        #: it only when squashed (commits never pass one), so the pointer
        #: is kept exact at those two places and the per-instruction
        #: detection poll is one attribute test.
        self._earliest_detection: Optional[PendingCheck] = None
        #: The commit cycle at or past which a compiled block must stop:
        #: :data:`DETECTION_MARGIN_CYCLES` below the cycle at which the
        #: wall clock reaches the earliest detection's ``end_ns``, or
        #: +inf with nothing pending.  Re-derived only where the pointer
        #: or the clock anchors change (:meth:`_sync_detection_bound`).
        self._detection_bound = math.inf
        self._last_commit_ns = 0.0
        self._checkpoint_lengths: List[int] = []
        #: (checkpoint instret, checker id) of the last detection, pending
        #: attribution: the retry is steered to different hardware and its
        #: result vindicates or absolves the original checker.
        self._retry_suspect: Optional["tuple[int, int]"] = None

        # Statistics.
        self.stalls = StallBreakdown()
        self.recoveries: List[RecoveryEvent] = []
        self.close_reasons: Dict[SegmentCloseReason, int] = {}
        self._executed_total = 0
        self._segments_closed = 0
        self._trap_retries = 0
        #: True while the next (external) instruction has been cleared to
        #: execute: every older check has committed clean.
        self._external_verified = False
        #: (wall_ns, text) for every externally visible write performed.
        self.external_flushes: List["tuple[float, str]"] = []
        #: Optional structured telemetry (EngineOptions.tracing): one
        #: tracer per engine, shared by every instrumented subcomponent.
        self.tracer: Optional[Tracer] = None
        if options.tracing:
            self.tracer = Tracer(
                system=system_name,
                workload=program.name,
                seed=config.fault.seed,
            )
            self.length_controller.tracer = self.tracer
            if self.dvfs is not None:
                self.dvfs.tracer = self.tracer
            if self.injector is not None:
                self.injector.tracer = self.tracer
            if self.guard is not None:
                self.guard.tracer = self.tracer
            if self.health is not None:
                self.health.tracer = self.tracer
        #: Optional invariant checker (EngineOptions.paranoid): absent
        #: by default, so every hook site is one ``is not None`` test at
        #: segment granularity — the tracing discipline.  Imported
        #: lazily to keep the oracle package out of production imports.
        self.paranoid: Optional["ParanoidChecker"] = None
        if options.paranoid:
            from ..oracle.invariants import ParanoidChecker

            self.paranoid = ParanoidChecker()
        #: The program's static per-PC facts (unit, register slots,
        #: externally visible syscalls), shared with the timing model,
        #: the checkers and the compiled tier.
        self._decode = decode_table(program)

    # ------------------------------------------------------------------ time --
    @property
    def wall_ns(self) -> float:
        return self._base_wall_ns + (self.timing.now - self._base_cycles) * self._cycle_ns

    def _ns_to_cycles(self, ns: float) -> float:
        return ns / self._cycle_ns

    def _set_frequency(self, frequency_hz: float) -> None:
        if frequency_hz == self._frequency_hz:
            return
        # Re-anchor so past time is preserved, future cycles use new period.
        self._base_wall_ns = self.wall_ns
        self._base_cycles = self.timing.now
        self._frequency_hz = frequency_hz
        self._cycle_ns = 1e9 / frequency_hz
        self._sync_detection_bound()

    def _sync_detection_bound(self) -> None:
        """Re-derive :attr:`_detection_bound` from the detection pointer
        and the clock anchors; called wherever either changes.

        A commit cycle below the bound maps to a wall time a whole
        margin short of ``end_ns``, far beyond any rounding in
        :attr:`wall_ns`, so a block that stops at the first commit at
        or past the bound never runs past the instruction that matures
        the detection.  Stopping inside the margin costs only an early
        return: the next dispatch resumes at the exact PC.
        """
        detection = self._earliest_detection
        if detection is None:
            self._detection_bound = math.inf
        else:
            self._detection_bound = (
                self._base_cycles
                + (detection.end_ns - self._base_wall_ns) / self._cycle_ns
                - DETECTION_MARGIN_CYCLES
            )

    def _stall_to_wall(self, target_ns: float, bucket: StallBucket) -> None:
        """Stall the main core until wall time ``target_ns``.

        ``bucket`` is a :class:`StallBucket`, not a string: every stall
        lands in a named field of :attr:`stalls` (so ``total_ns`` is
        total by construction), and an unknown bucket raises instead of
        silently dropping time.
        """
        now = self.wall_ns
        if target_ns <= now:
            return
        cycles = self._ns_to_cycles(target_ns - now)
        self.timing.stall_until(self.timing.now + cycles)
        self.stalls.add(bucket, target_ns - now)

    # ------------------------------------------------------------- segments --
    def _open_segment(self, start_state: ArchState) -> None:
        granularity = self.options.granularity
        seq = self._next_seq
        self._next_seq += 1
        self._segment = LogSegment(
            seq=seq,
            granularity=granularity,
            capacity_bytes=self.config.checker.log_bytes_per_core,
            start_state=start_state,
            prev_checker_id=self._last_checker_id,
            main_id=self.main_id,
            opened_ns=self.wall_ns,
        )
        self.port.segment = self._segment
        if self.jit is not None:
            # Segment-boundary invalidation: compiled blocks record into
            # the segment the tier knows about; a stale recorder would
            # account instructions to a closed checkpoint.
            self.jit.note_segment(self._segment)
        if self.tracer is not None:
            self.tracer.now_ns = self.wall_ns
            self.tracer.emit("engine", "segment_open", segment=seq)

    def _close_segment(self, reason: SegmentCloseReason) -> None:
        segment = self._segment
        assert segment is not None
        segment.close(self.state.snapshot(), reason)
        if self.tracer is not None:
            self.tracer.now_ns = self.wall_ns
            self.tracer.emit(
                "engine",
                "segment_close",
                segment=segment.seq,
                value=float(segment.instruction_count),
                detail=reason.value,
            )
        self.close_reasons[reason] = self.close_reasons.get(reason, 0) + 1
        self._segments_closed += 1
        self._trap_retries = 0  # a closed segment is forward progress
        self._checkpoint_lengths.append(segment.instruction_count)

        # Register checkpoint: commit blocked for 16 cycles.
        block = self.config.main_core.register_checkpoint_cycles
        self.timing.block_commit(block)
        self.stalls.checkpoint_ns += block * self._cycle_ns

        # DVFS advances at every checkpoint boundary (the error case is
        # handled inside _roll_back).
        self._dvfs_checkpoint(error=False)

        if self.pool is not None:
            self._dispatch(segment)

        event = (
            LengthEvent.EVICTION
            if reason is SegmentCloseReason.EVICTION_CONFLICT
            else LengthEvent.CLEAN
        )
        self.length_controller.observe(segment.instruction_count, event)

        if self.paranoid is not None:
            self.paranoid.on_close(self, segment)

        # Next segment continues from this checkpoint.
        self._open_segment(segment.end_state)

    def _dvfs_checkpoint(self, error: bool) -> None:
        if self.dvfs is None:
            return
        self.dvfs.on_checkpoint(error, self.wall_ns)
        self._sync_dvfs_outputs()

    def _sync_dvfs_outputs(self) -> None:
        """Propagate the controller's voltage to frequency and fault rate."""
        if self.dvfs is None:
            return
        self._set_frequency(self.dvfs.frequency_hz)
        if self.injector is not None:
            if self.options.voltage_model is not None:
                rate = self.options.voltage_model.rate(self.dvfs.voltage)
                self.injector.set_rate(rate)
            # Map-based SRAM models follow the voltage directly: a
            # supply change re-thresholds their bit-cell maps.
            self.injector.set_voltage(self.dvfs.voltage)

    # -------------------------------------------------------------- checking --
    def _dispatch(self, segment: LogSegment) -> None:
        # A retry of a rolled-back checkpoint is steered away from the
        # checker that reported the detection: its verdict on different
        # hardware attributes the fault (checker-local vs followed-the-work).
        suspect = self._retry_suspect
        retrying = (
            suspect is not None
            and self.health is not None
            and segment.start_state.instret == suspect[0]
        )
        avoid = {suspect[1]} if retrying else None
        core_id, start_ns = self.scheduler.select(
            self.wall_ns, avoid=avoid, health=self.health
        )
        if start_ns > self.wall_ns:
            self._stall_to_wall(start_ns, StallBucket.CHECKER_WAIT)
        start_ns = max(start_ns, self.wall_ns)
        segment.checker_id = core_id

        result = self._check(core_id, segment)
        if self.health is not None:
            if result.detected:
                self.health.record_detection(core_id)
            else:
                self.health.record_clean(core_id)
            if retrying:
                self._retry_suspect = None
                suspect_core = suspect[1]
                if core_id != suspect_core:
                    if result.detected:
                        # The retry failed on different hardware too: the
                        # fault followed the work, not the checker.
                        self.health.record_absolution(suspect_core)
                    else:
                        self.health.record_vindication(suspect_core, start_ns)
        duration_ns = self.checker.cycles_to_ns(result.checker_cycles)
        record = self.scheduler.dispatch(core_id, segment.seq, start_ns, duration_ns)
        self._last_checker_id = core_id
        pending = PendingCheck(segment, record, result, start_ns + duration_ns)
        self._pending.append(pending)
        if result.detected:
            earliest = self._earliest_detection
            if earliest is None or pending.end_ns < earliest.end_ns:
                self._earliest_detection = pending
                self._sync_detection_bound()
        if self.tracer is not None:
            # The check's busy interval on its checker core: Perfetto
            # draws the core's slice from this event.
            self.tracer.emit(
                "engine",
                "dispatch",
                time_ns=start_ns,
                segment=segment.seq,
                core=core_id,
                value=duration_ns,
            )
            self.tracer.metrics.inc("scheduling.dispatches")
            self.tracer.metrics.observe("scheduling.busy_ns", duration_ns)

    def _check(self, core_id: int, segment: LogSegment) -> CheckResult:
        checker = self.checker
        injector = self.injector
        checker_targeted = injector is not None and injector.target == "checker"
        main_targeted = injector is not None and injector.target == "main"
        if injector is not None:
            injector.begin_check(core_id)
        try:
            if not main_targeted and self.options.fastpath:
                if injector is None or not injector.fires_within_segment(segment):
                    if injector is not None:
                        injector.skip_segment(segment)
                    return CheckResult(
                        None, segment.instruction_count, checker.analytic_cycles(segment)
                    )
            hook = injector if checker_targeted else None
            return checker.check_segment(segment, hook=hook)
        finally:
            if injector is not None:
                injector.begin_check(None)

    # -------------------------------------------------- commits & detections --
    def _process_commits(self, up_to_ns: float) -> None:
        """Commit clean checks, oldest first, whose results land by ``up_to_ns``.

        A check commits only once all older checks have committed (the
        waiting state of figure 2); commit releases its unchecked lines.
        A pending *detection* blocks commits of everything younger.
        """
        committed = False
        while self._pending:
            head = self._pending[0]
            if head.result.detected:
                break
            effective = max(head.end_ns, self._last_commit_ns)
            if effective > up_to_ns:
                break
            self._last_commit_ns = effective
            self.tracker.release_through(head.segment.seq)
            self._pending.pop(0)
            committed = True
            if self.guard is not None:
                self.guard.on_commit(head.segment.end_state.instret)
            if self.tracer is not None:
                self.tracer.emit(
                    "engine", "commit", time_ns=effective, segment=head.segment.seq
                )
        if committed and self.paranoid is not None:
            self.paranoid.on_commit(self)

    def _wait_for_checks(
        self, bucket: StallBucket, address: Optional[int] = None
    ) -> bool:
        """Stall the main core on outstanding checks; True on rollback.

        Each step waits, in ``bucket``, for whichever lands first: the
        oldest check's commit or the earliest detection.  Waiting stops
        once every check has committed or, with ``address``, once that
        address's unchecked line fits.  Unlike the end-of-run
        :meth:`_drain`, the main core is blocked here (on an external
        write, a main-core trap or an eviction conflict), so every wait
        costs wall time.
        """
        while (
            self._pending if address is None else self.tracker.would_conflict(address)
        ):
            if not self._pending:
                raise RuntimeError(
                    f"unresolvable unchecked-line conflict at {address:#x}"
                )
            head_effective = max(self._pending[0].end_ns, self._last_commit_ns)
            detection = self._earliest_detection
            if detection is not None and detection.end_ns <= head_effective:
                self._stall_to_wall(detection.end_ns, bucket)
                self._handle_detection(detection)
                return True
            self._stall_to_wall(head_effective, bucket)
            self._process_commits(head_effective)
        return False

    def _handle_detection(self, pending: PendingCheck) -> None:
        """Squash the faulty segment and everything younger, then roll back."""
        faulty = pending.segment
        now = max(self.wall_ns, pending.end_ns)
        # Commit any older clean checks that finished before detection.
        self._process_commits(now)

        # The faulty segment may no longer be the oldest pending; roll back
        # everything from it (inclusive) to the newest, plus the filler.
        # ``_pending`` is in segment order, oldest first.
        to_squash = [p for p in self._pending if p.segment.seq >= faulty.seq]
        keep = [p for p in self._pending if p.segment.seq < faulty.seq]
        filler = self._segment
        segments_newest_first = (
            [filler] if filler.instruction_count or filler.store_count else []
        )
        segments_newest_first += [p.segment for p in reversed(to_squash)]

        # Abort in-flight checks of squashed segments.
        for squashed in to_squash:
            record = squashed.record
            reclaimed = self.scheduler.abort(record, now)
            if reclaimed is not None and self.tracer is not None:
                self.tracer.emit(
                    "scheduling",
                    "abort",
                    time_ns=now,
                    segment=record.segment_seq,
                    core=record.core_id,
                    value=reclaimed,
                )
                self.tracer.metrics.inc("scheduling.aborts")
        self._pending = keep
        self._earliest_detection = min(
            (p for p in keep if p.result.detected),
            key=lambda p: p.end_ns,
            default=None,
        )
        self._sync_detection_bound()

        # Resilience: steer the retry to different hardware; its verdict
        # vindicates or absolves the checker that reported this one.
        if self.health is not None:
            self._retry_suspect = (faulty.start_state.instret, pending.record.core_id)
        self._roll_back(
            faulty,
            segments_newest_first,
            pending.result.detection.channel,
            now,
            checker_id=pending.record.core_id,
        )

    def _roll_back(
        self,
        faulty: LogSegment,
        segments_newest_first: List[LogSegment],
        channel: DetectionChannel,
        now: float,
        checker_id: Optional[int] = None,
    ) -> None:
        """Recover from an error in ``faulty`` detected at wall time ``now``.

        Walks the log of ``segments_newest_first`` back to ``faulty``'s
        start, restores its checkpoint, accounts the walk as a rollback
        stall and records the recovery, then adapts (shorter checkpoints,
        a higher voltage, forward-progress escalation) and re-opens
        filling from the restored state.  ``checker_id`` names the checker
        that detected the error; None for a main-core trap.
        """
        rollback = rollback_memory(self.memory, segments_newest_first)
        rollback_ns = rollback.cycles * self._cycle_ns

        # Restore architectural and tracker state.
        self.state.restore(faulty.start_state)
        self.tracker.drop_after(faulty.seq - 1)
        self.timing.discard_inflight()

        # Account time: detection point, then the rollback walk.
        wasted_ns = max(now - faulty.opened_ns, 0.0)
        self._stall_to_wall(now + rollback_ns, StallBucket.ROLLBACK)
        self.recoveries.append(
            RecoveryEvent(
                segment_seq=faulty.seq,
                channel=channel,
                detect_ns=now,
                wasted_execution_ns=wasted_ns,
                rollback_ns=rollback_ns,
                rollback_entries=rollback.entries_restored,
                segments_rolled_back=rollback.segments_walked,
            )
        )
        if self.tracer is not None:
            self.tracer.now_ns = now
            self.tracer.emit(
                "engine",
                "detect",
                time_ns=now,
                segment=faulty.seq,
                core=-1 if checker_id is None else checker_id,
                detail=channel.value,
            )
            self.tracer.emit(
                "engine",
                "rollback",
                time_ns=now + rollback_ns,
                segment=faulty.seq,
                value=rollback_ns,
                detail=f"{rollback.entries_restored} entries, "
                f"{rollback.segments_walked} segments",
            )
            self.tracer.metrics.observe("engine.rollback_ns", rollback_ns)
            self.tracer.metrics.observe("engine.wasted_ns", wasted_ns)

        # Adapt: checkpoint length shrinks, voltage rises.
        self.length_controller.observe(faulty.instruction_count, LengthEvent.ERROR)
        self._dvfs_checkpoint(error=True)

        # Let the forward-progress guard escalate if this checkpoint keeps
        # rolling back (it raises ForwardProgressFailure when the storm
        # survives the safe voltage).
        if self.guard is not None:
            try:
                self.guard.on_rollback(
                    faulty.start_state.instret,
                    self.wall_ns,
                    checker_id=checker_id,
                    channel=channel.value,
                )
            finally:
                # Escalation may have moved the voltage target; keep the
                # clock and the fault rate coupled to it either way.
                self._sync_dvfs_outputs()

        # Resume filling from the restored state.
        self._external_verified = False
        self._open_segment(faulty.start_state.snapshot())
        if self.paranoid is not None:
            self.paranoid.on_rollback(self, faulty.seq - 1)

    def _handle_main_trap(self, trap: SimTrap) -> None:
        """The main core itself trapped — suspect a transient fault.

        With main-core injection enabled a bit flip can send the main core
        to a wild address or PC.  Hardware running ParaDox treats this
        like any other error: wait for outstanding checks (an older segment's
        checker may pinpoint the corruption and trigger a full rollback),
        and otherwise revert the current segment locally and re-run it.
        A trap that recurs without any possible fault is a genuine program
        bug and is re-raised.
        """
        # Prefer a pending detection: it rolls back further and clears more.
        if self._wait_for_checks(StallBucket.CHECKER_WAIT):
            self._trap_retries = 0
            return
        # No outstanding checks: the corruption is local to this segment.
        self._trap_retries += 1
        if self.guard is None and self._trap_retries > 8:
            # Legacy behaviour: without the resilience layer a recurring
            # trap is assumed to be a deterministic program bug.  The
            # forward-progress guard instead escalates (shrink, voltage)
            # and surfaces a typed ForwardProgressFailure if it persists.
            raise RuntimeError(
                f"main core trapped repeatedly at pc {self.state.pc} with no "
                f"recovery possible (deterministic bug?): {trap!r}"
            ) from trap
        filler = self._segment
        self._roll_back(
            filler,
            [filler] if filler.store_count else [],
            DetectionChannel.MAIN_TRAP,
            self.wall_ns,
        )

    # ------------------------------------------------------------------- run --
    def run(self, max_instructions: int = 1_000_000) -> RunResult:
        """Simulate until the program halts or the useful budget is reached."""
        options = self.options
        checking = options.checking
        if options.jit and (self.injector is None or self.injector.target != "main"):
            # Blocks commit to the timing model like the loop they
            # replace.  With checkers they also record into the live
            # segment through the logging port; without, they bind the
            # raw memory image the unprotected loop steps against.
            self.jit = SuperblockJit(
                self.program,
                self.state,
                self.port if checking else self.memory,
                self.timing.commit,
                record=checking,
            )
        if not checking:
            return self._run_unprotected(max_instructions)
        livelock_budget = int(max_instructions * options.livelock_factor)
        self._open_segment(self.state.snapshot())

        outcome = RunOutcome.COMPLETED
        failure = None
        main_done_ns = 0.0
        try:
            while True:
                if self._fill_loop(max_instructions, livelock_budget):
                    outcome = RunOutcome.LIVELOCK
                    main_done_ns = self.wall_ns
                    break
                # Program finished (or budget reached): close the last segment.
                if self._segment.instruction_count > 0:
                    self._close_segment(SegmentCloseReason.PROGRAM_END)
                # The application is complete here; outstanding checks
                # drain in the background and only extend the run if one
                # of them detects an error.
                main_done_ns = self.wall_ns
                if not self._drain():
                    break
                # A detection during drain un-halted the state; keep running.
        except ForwardProgressFailure as fpf:
            outcome = RunOutcome.FORWARD_PROGRESS_FAILURE
            failure = fpf.diagnostics
            main_done_ns = self.wall_ns

        return self._result(main_done_ns or self.wall_ns, outcome, failure)

    def _result(
        self,
        wall: float,
        outcome: RunOutcome,
        failure: Optional[ForwardProgressDiagnostics],
    ) -> RunResult:
        """The run's statistics, with telemetry folded in when traced.

        An unprotected run has no checkers, checkpoints, DVFS controller
        or guard, so those fields keep their empty values.
        """
        pool = self.pool
        result = RunResult(
            system=self.system_name,
            workload=self.program.name,
            wall_ns=wall,
            instructions=self.state.instret,
            instructions_executed=self._executed_total,
            segments=self._segments_closed,
            recoveries=self.recoveries,
            stalls=self.stalls,
            close_reasons=dict(self.close_reasons),
            checker_wake_rates=pool.wake_rates(wall, self.main_id) if pool else [],
            checker_peak_concurrency=(
                pool.peak_concurrency(self.main_id) if pool else 0
            ),
            voltage_trace=list(self.dvfs.stats.trace) if self.dvfs else [],
            mean_voltage=(
                self.dvfs.stats.mean_voltage()
                if self.dvfs
                else self.config.dvfs.nominal_voltage
            ),
            highest_error_voltage=(
                self.dvfs.stats.highest_error_voltage if self.dvfs else 0.0
            ),
            faults_injected=self.injector.stats.total if self.injector else 0,
            program_output=list(self.state.output),
            mean_checkpoint_length=(
                sum(self._checkpoint_lengths) / len(self._checkpoint_lengths)
                if self._checkpoint_lengths
                else 0.0
            ),
            final_checkpoint_target=self.length_controller.target if pool else 0,
            outcome=outcome,
            failure=failure,
            quarantine_events=list(self.health.events) if self.health else [],
            escalations=list(self.guard.events) if self.guard else [],
            external_flushes=list(self.external_flushes),
            unit_mix=dict(self.timing.unit_mix),
        )
        self._finalize_telemetry(result)
        return result

    def _finalize_telemetry(self, result: RunResult) -> None:
        """Fold run-level statistics into the metrics registry and attach
        the serialized trace + metrics to the result.

        Serialization happens here (not at export time) so the artifacts
        survive pickling through the parallel fan-out's result pipe.
        """
        tracer = self.tracer
        if tracer is None:
            return
        metrics = tracer.metrics
        metrics.inc("engine.instructions", float(result.instructions))
        metrics.inc(
            "engine.instructions_executed", float(result.instructions_executed)
        )
        metrics.inc("engine.segments", float(result.segments))
        metrics.inc("engine.detections", float(len(result.recoveries)))
        metrics.inc("engine.faults_injected", float(result.faults_injected))
        metrics.gauge("engine.wall_ns", result.wall_ns)
        metrics.gauge("engine.ipc_aggregate", result.ipc_aggregate)
        metrics.gauge(
            "engine.mean_checkpoint_length", result.mean_checkpoint_length
        )
        metrics.gauge(
            "checkpoint.final_target", float(result.final_checkpoint_target)
        )
        metrics.gauge("dvfs.mean_voltage", result.mean_voltage)
        stalls = result.stalls
        metrics.gauge("stalls.checker_wait_ns", stalls.checker_wait_ns)
        metrics.gauge("stalls.conflict_ns", stalls.conflict_ns)
        metrics.gauge("stalls.checkpoint_ns", stalls.checkpoint_ns)
        metrics.gauge("stalls.rollback_ns", stalls.rollback_ns)
        metrics.gauge("stalls.drain_ns", stalls.drain_ns)
        metrics.gauge("stalls.total_ns", stalls.total_ns)
        if result.checker_wake_rates:
            metrics.set_per_checker(
                "scheduling.wake_rates", result.checker_wake_rates
            )
        if self.jit is not None:
            for name, value in self.jit.stats.to_dict().items():
                # blocks_compiled reflects the warmth of the process-wide
                # shared code cache (a worker that already golden-ran the
                # same program compiles nothing), so it cannot be part of
                # the run's deterministic telemetry contract.  The other
                # counters are functions of the run alone and must stay
                # bit-identical across execution widths.
                if name == "blocks_compiled":
                    continue
                metrics.gauge(f"jit.{name}", float(value))
        metrics.inc(f"engine.outcome.{result.outcome.value}")
        result.metrics = metrics.to_dict()
        result.trace = tracer.to_dicts()

    def _run_unprotected(self, max_instructions: int) -> RunResult:
        """Baseline: the main core alone, no checkers, no checkpoints."""
        state = self.state
        # Bypass the logging port entirely.
        self.executor.port = self.memory
        # Hot loop: bind the per-instruction callees once.
        step = self.executor.step
        commit = self.timing.commit
        run_block = self.jit.run_block if self.jit is not None else None
        executed = 0
        while not state.halted and (instret := state.instret) < max_instructions:
            if run_block is not None:
                n = run_block(max_instructions - instret)
                if n:
                    executed += n
                    continue
            info = step()
            executed += 1
            commit(info.pc_before, info.address, info.taken, info.pc_after)
        self._executed_total += executed
        return self._result(self.wall_ns, RunOutcome.COMPLETED, None)

    def _fill_loop(self, max_instructions: int, livelock_budget: int) -> bool:
        """Execute main-core instructions until halt or budget.

        Returns True when the livelock budget ran out (recovery kept
        re-executing without useful progress), False otherwise.
        """
        state = self.state
        segment_target = self.length_controller.target
        # Hot loop: bind per-instruction callees and constants once.
        # (self.executor and self.timing are never rebound while the
        # protected path runs.)
        step = self.executor.step
        commit = self.timing.commit
        decode = self._decode
        unit_indices = decode.unit_index
        writes_register = decode.writes_register
        external_pcs = decode.external_pcs
        injector = self.injector
        main_injection = injector is not None and injector.target == "main"
        run_block = self.jit.run_block if self.jit is not None else None
        while not state.halted and (before := state.instret) < max_instructions:
            if self._executed_total >= livelock_budget:
                if self.guard is not None:
                    # Resilient mode: a persistent defect at the safe
                    # voltage is a typed forward-progress failure even
                    # when the storm crawled past fail_after's streak.
                    self.guard.on_budget_exhausted(state.instret, self.wall_ns)
                return True
            if not self._external_verified and state.pc in external_pcs:
                # External state escapes the rollback domain: close the
                # current segment and block until every outstanding check
                # has committed clean before letting the write proceed.
                if self._segment.instruction_count > 0:
                    self._close_segment(SegmentCloseReason.EXTERNAL)
                if self._wait_for_checks(StallBucket.CHECKER_WAIT):
                    segment_target = self.length_controller.target
                    continue  # a detection rolled us back; retry
                self._external_verified = True
            n = 0
            try:
                if run_block is not None and not self._external_verified:
                    # Compiled dispatch.  Before a block's last
                    # instruction every per-instruction obligation of
                    # the interpreted path is provably a no-op: no
                    # external syscall sits in a region (SYSCALL is not
                    # compilable), no main-core injector exists (the
                    # tier is not built then), and the detection bound
                    # ends the block no later than the instruction that
                    # matures the earliest pending detection (the
                    # pointer and the clock anchors change only at
                    # dispatch, squash and frequency moves, never
                    # mid-block).  The segment target and the
                    # instruction and livelock budgets cut the block
                    # short, so it stops exactly where the interpreter
                    # would close the segment or return.
                    n = run_block(
                        min(
                            segment_target - self._segment.instruction_count,
                            max_instructions - before,
                            livelock_budget - self._executed_total,
                        ),
                        self._detection_bound,
                    )
                if not n:
                    info = step()
            except (SegmentFull, UncheckedConflictStall, SimTrap) as exc:
                # Blocks keep instret exact up to the raising
                # instruction and a raising step retires nothing, so the
                # instret delta is what ran.
                self._executed_total += state.instret - before
                if isinstance(exc, SegmentFull):
                    self._close_segment(SegmentCloseReason.LOG_CAPACITY)
                elif isinstance(exc, UncheckedConflictStall):
                    self._handle_conflict(exc.address)
                else:
                    self._handle_main_trap(exc)
                segment_target = self.length_controller.target
                continue

            if n:
                # After a block's last instruction the interpreted order
                # applies: the detection test, then the segment target.
                self._executed_total += n
                detection = self._earliest_detection
                if detection is not None and detection.end_ns <= self.wall_ns:
                    self._handle_detection(detection)
                    segment_target = self.length_controller.target
                elif self._segment.instruction_count >= segment_target:
                    self._close_segment(SegmentCloseReason.TARGET_LENGTH)
                    segment_target = self.length_controller.target
                continue
            self._executed_total += 1
            pc = info.pc_before
            commit(pc, info.address, info.taken, info.pc_after)
            segment = self._segment
            segment.record_instruction(unit_indices[pc], writes_register[pc])
            if self._external_verified:
                # The external write just executed, *buffered*.  It is
                # released to the outside world only once its own segment
                # checks clean; a detection instead rolls back to before
                # the write, which was never released — no duplication.
                self._external_verified = False
                pending_text = state.output[-1][1] if state.output else ""
                self._close_segment(SegmentCloseReason.EXTERNAL)
                if not self._wait_for_checks(StallBucket.CHECKER_WAIT):
                    self.external_flushes.append((self.wall_ns, pending_text))
                    if self.tracer is not None:
                        self.tracer.emit(
                            "engine",
                            "external_flush",
                            time_ns=self.wall_ns,
                            detail=pending_text,
                        )
                segment_target = self.length_controller.target
                continue
            if main_injection:
                injector.after_instruction(
                    state,
                    unit_indices[pc],
                    decode.main_rows[pc][4],
                    segment.instruction_count,
                )

            # Detections interrupt execution as soon as the main core's
            # wall clock passes the detection point.
            detection = self._earliest_detection
            if detection is not None and detection.end_ns <= self.wall_ns:
                self._handle_detection(detection)
                segment_target = self.length_controller.target
                continue

            if state.halted:
                break
            if segment.instruction_count >= segment_target:
                self._close_segment(SegmentCloseReason.TARGET_LENGTH)
                segment_target = self.length_controller.target
        return False

    def _handle_conflict(self, address: int) -> None:
        """An unchecked-line conflict: wait on checks until the write fits."""
        if self._segment.instruction_count > 0:
            self._close_segment(SegmentCloseReason.EVICTION_CONFLICT)
        # A detection rolls the state back; the conflicting store may not recur.
        self._wait_for_checks(StallBucket.CONFLICT, address)

    def _drain(self) -> bool:
        """Resolve all outstanding checks; True if a rollback re-opened work.

        Clean commits do not stall the (already finished) main core: the
        application completed at ``main_done_ns`` and checking merely
        lags.  Only a detection re-engages the main core, extending the
        run with recovery and re-execution.
        """
        while self._pending:
            head_effective = max(self._pending[0].end_ns, self._last_commit_ns)
            detection = self._earliest_detection
            if detection is not None and detection.end_ns <= head_effective:
                self._stall_to_wall(detection.end_ns, StallBucket.DRAIN)
                self._handle_detection(detection)
                return True
            self._process_commits(head_effective)
        return False
