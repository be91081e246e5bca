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

Full replay runs through the compiled tier (:mod:`repro.jit`) where no
fault can fire, the per-instruction form of the same guarantee.  The
replay context binds the tier's commit-only regions, the code the
unprotected engine loop runs, with a no-op ``commit``: a span's checker
cycles are a difference of the decode table's running latency sums.
Before every dispatch the checker cuts the block short of the first
instruction that may fire, by the budgets the hook's
``replay_budgets`` reports; that instruction steps through the hooks,
and the clean ones before it are handed to the fault models in bulk
before every such step and at every exit (clean end, mid-block
detection, trap).  A hook that cannot bound its models' next fire (a
stuck-at, burst or SRAM model applies) keeps the per-instruction loop,
as does a checker built with ``jit=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Sequence, Tuple

from ..config import CHECKER_FU_LATENCY, CheckerConfig
from ..isa import Executor, SimTrap, StepInfo
from ..isa.decode import UNITS, DecodeTable, decode_table
from ..isa.state import ArchState
from ..jit import SuperblockJit
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

#: Checker latency per unit, indexed like :data:`repro.isa.decode.UNITS`.
_UNIT_LATENCY = tuple(CHECKER_FU_LATENCY[unit.value] for unit in UNITS)

#: One fault model's clean budget: ``(unit, clean, advance)``, see
#: :meth:`SegmentFaultHook.replay_budgets`.
Budget = Tuple[Optional[int], float, Callable[[int], None]]


class SegmentFaultHook(Protocol):
    """Fault-injection hooks a checker honours during replay.

    Implemented by :class:`repro.faults.injector.FaultInjector`; all
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

    def replay_budgets(self) -> Optional[List[Budget]]:
        """Optional: one ``(unit, clean, advance)`` per fault process the
        two instruction hooks step, where the next ``clean`` of its
        operations (every instruction for ``unit`` None, else the
        register-writing instructions of unit index ``unit``) cannot
        fire and ``advance(n)`` consumes ``n`` of them; None when some
        process cannot say.  A hook without it, or answering None, has
        every instruction stepped through the two instruction hooks.
        """
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


def _no_commit(*_args) -> None:
    """Replay keeps no main-core timing: its regions commit here."""


class _Domain:
    """One fault domain during a compiled replay: its
    :meth:`DecodeTable.fault_columns`, how many of its operations may
    still run unhooked (``left``), how many were left at the last
    settle, and the ``advance`` of every model counting them."""

    __slots__ = ("before", "pcs", "left", "settled", "advances")

    def __init__(
        self,
        columns: Tuple[Sequence[int], Sequence[int]],
        left: int,
        advance: Callable[[int], None],
    ) -> None:
        self.before, self.pcs = columns
        self.left = self.settled = left
        self.advances = [advance]


def _domains(table: DecodeTable, reported: List[Budget]) -> List[_Domain]:
    """Group the hook's budgets by domain; a domain keeps the smallest."""
    by_unit: "dict[Optional[int], _Domain]" = {}
    for unit, clean, advance in reported:
        domain = by_unit.get(unit)
        if domain is None:
            by_unit[unit] = _Domain(table.fault_columns(unit), int(clean), advance)
        else:
            domain.left = domain.settled = min(domain.left, int(clean))
            domain.advances.append(advance)
    return list(by_unit.values())


def _settle(domains: List[_Domain]) -> None:
    """Hand every model the clean operations run since the last settle."""
    for domain in domains:
        used = domain.settled - domain.left
        if used:
            for advance in domain.advances:
                advance(used)
            domain.settled = domain.left


class CheckerCore:
    """The checker-core replay model of one program.

    Every checker core of a pool replays the same program on the same
    hardware, so one model serves the whole pool.  Occupancy is
    physical and lives in the :class:`~repro.scheduling.pool.CheckerPool`,
    which names the core each check runs on; fault models bound to one
    core learn it from the injector's ``begin_check``.

    The replay context (one executor, one replay port re-pointed at each
    segment, and with ``jit`` the compiled tier bound to both) is built
    on the first full check and reused by every later one.
    """

    def __init__(self, config: CheckerConfig, program, *, jit: bool = True) -> None:
        self.config = config
        self.program = program
        self._table = decode_table(program)
        self._icache_cpi = icache_penalty(program.text_bytes, config).cycles_per_instruction
        #: Histogram-keyed memo for :meth:`analytic_cycles`: loop-heavy
        #: workloads close many segments with identical histograms.
        self._analytic_cache: "dict[tuple, float]" = {}
        self._use_jit = jit
        self._executor: Optional[Executor] = None
        self._port: Optional[CheckerReplayPort] = None
        #: The replay tier (commit-only regions): None with ``jit`` off
        #: and until the first full check.
        self.jit: Optional[SuperblockJit] = None

    # -- timing -------------------------------------------------------------------
    def analytic_cycles(self, segment: LogSegment) -> float:
        """Checking cost from the instruction histogram (fast path)."""
        key = tuple(segment.unit_counts)
        cached = self._analytic_cache.get(key)
        if cached is not None:
            return cached
        # Integer latencies: the per-unit sum is exact in any order.
        cycles = float(sum(count * lat for count, lat in zip(key, _UNIT_LATENCY)))
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
        executor = self._executor
        if executor is None:
            executor = self._build()
        state = executor.state
        state.restore(segment.start_state)
        port = self._port
        port.replay(
            segment,
            hook.corrupt_load if hook else None,
            hook.corrupt_store if hook else None,
        )
        reported: Optional[List[Budget]] = None
        if self.jit is not None:
            replay_budgets = getattr(hook, "replay_budgets", None)
            if hook is None:
                reported = []
            elif replay_budgets is not None:
                reported = replay_budgets()
        if reported is None:
            executed, cycles, error = self._step_all(executor, segment, hook)
        else:
            executed, cycles, error = self._replay(executor, segment, hook, reported)
        detection: Optional[ErrorDetected] = None
        if isinstance(error, ErrorDetected):
            error.instruction_index = executed
            # Drop the traceback: it would tie the replay's frames (and
            # the engine's above them) into a cycle with the result.
            detection = error.with_traceback(None)
        elif error is not None:
            detection = CheckerException(
                f"checker trapped: {error!r}", instruction_index=executed
            )
        elif not state.matches(segment.end_state):
            # Final architectural state check.
            diff = state.divergence(segment.end_state)
            detection = FinalStateMismatch(
                f"final state differs: {diff}", instruction_index=executed
            )
        elif not port.fully_consumed:
            detection = FinalStateMismatch(
                "log not fully consumed at final check", instruction_index=executed
            )
        port.replay(None)  # let the segment go with its check
        cycles += executed * self._icache_cpi
        return CheckResult(detection, executed, cycles)

    def _build(self) -> Executor:
        port = self._port = CheckerReplayPort(None)
        executor = self._executor = Executor(self.program, ArchState(), port)
        if self._use_jit:
            self.jit = SuperblockJit(
                self.program, executor.state, port, _no_commit, record=False
            )
        return executor

    def _step_all(
        self,
        executor: Executor,
        segment: LogSegment,
        hook: Optional[SegmentFaultHook],
    ) -> "Tuple[int, float, Optional[Exception]]":
        """Interpret every instruction, each through the hooks.

        Returns the instructions retired, their checker cycles and the
        detection or trap that ended the replay early, if any.
        """
        state = executor.state
        target = segment.instruction_count
        budget = max(target * TIMEOUT_FACTOR, target + 64)
        cycles = 0.0
        executed = 0
        latency_by_pc = self._table.checker_latency
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
        except (ErrorDetected, SimTrap) as error:
            return executed, cycles, error
        return executed, cycles, None

    def _replay(
        self,
        executor: Executor,
        segment: LogSegment,
        hook: Optional[SegmentFaultHook],
        reported: List[Budget],
    ) -> "Tuple[int, float, Optional[Exception]]":
        """:meth:`_step_all` through compiled blocks wherever no fault
        model can fire, with the same results, hook calls at every
        instruction that may fire and model state at every exit."""
        state = executor.state
        step = executor.step
        run_block = self.jit.run_block  # type: ignore[union-attr]
        table = self._table
        cycles_before = table.checker_cycles_before
        size = len(table.instructions)
        domains = _domains(table, reported)
        target = segment.instruction_count
        first = state.instret
        executed = 0
        cycles = 0
        pc = 0
        try:
            while executed < target and not state.halted:
                pc = state.pc
                limit = target - executed
                if pc < size:
                    # Stop short of the first instruction that may fire.
                    for domain in domains:
                        k = domain.before[pc] + domain.left
                        pcs = domain.pcs
                        if k < len(pcs) and pcs[k] - pc < limit:
                            limit = pcs[k] - pc
                if limit:
                    # A wild PC is in no block and traps in step().
                    n = run_block(limit)
                    if not n:
                        step()
                        n = 1
                    executed += n
                    cycles += cycles_before[pc + n] - cycles_before[pc]
                    for domain in domains:
                        before = domain.before
                        domain.left -= before[pc + n] - before[pc]
                    continue
                # The instruction at pc may fire: the models see every
                # clean one before it, then this one through the hooks.
                _settle(domains)
                hook.before_instruction(state, executed)  # type: ignore[union-attr]
                info = step()
                executed += 1
                cycles += cycles_before[pc + 1] - cycles_before[pc]
                hook.after_instruction(state, info, executed - 1)  # type: ignore[union-attr]
                domains = _domains(table, hook.replay_budgets())  # type: ignore[union-attr]
        except (ErrorDetected, SimTrap) as error:
            # A raising block keeps instret exact up to the raising
            # instruction, and a raising step retires nothing.
            ran = state.instret - first - executed
            if ran:
                executed += ran
                cycles += cycles_before[pc + ran] - cycles_before[pc]
                for domain in domains:
                    before = domain.before
                    domain.left -= before[pc + ran] - before[pc]
            _settle(domains)
            return executed, float(cycles), error
        _settle(domains)
        return executed, float(cycles), None
