"""The fault injector: drives fault models against checker execution.

One :class:`FaultInjector` owns a list of fault models sharing one RNG
and applies them to the stream of checked segments, in dispatch order.
It implements the :class:`~repro.cores.checker_core.SegmentFaultHook`
protocol directly, so it can be handed to
:meth:`CheckerCore.check_segment`.  It passes each model exactly what
the hook was given: an instruction's unit index and written register
slot, from the decode table, or a logged memory operation's index and
address, from the replay port.

The engine's fast path asks :meth:`fires_within_segment` before replaying
a segment; when no model can fire within the segment's operation counts
the injector *consumes* those counts (:meth:`skip_segment`) and the
replay is skipped — exactly as if it had replayed, since a correct
checker replaying a correct segment cannot fail.  A replayed segment
gets the same treatment per instruction: :meth:`replay_budgets` tells
the checker how many instructions each model lets it run compiled,
without the hooks, before one may fire.  Both shortcuts derive from
each model's one answer, :meth:`FaultModel.clean_operations`.

Injection can target the checker cores (the paper's setup: "we choose to
restrict error injection to the checker cores only", which is sound
because "error detection is symmetrical") or the main core, used by the
property tests to demonstrate end-to-end recovery of genuinely corrupted
execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..telemetry import Tracer

from ..isa.state import ArchState
from ..lslog.segment import LogSegment
from .models import FaultDomain, FaultModel

#: Domains the replay port serves on every replay path.
_PORT_DOMAINS = (FaultDomain.LOADS, FaultDomain.STORES)


@dataclass
class InjectionStats:
    """How many faults each mechanism injected."""

    instruction_faults: int = 0
    load_faults: int = 0
    store_faults: int = 0
    segments_skipped: int = 0

    @property
    def total(self) -> int:
        return self.instruction_faults + self.load_faults + self.store_faults


class FaultInjector:
    """Applies a set of fault models to checked (or main) execution."""

    def __init__(
        self,
        models: Sequence[FaultModel],
        target: str = "checker",
    ) -> None:
        if target not in ("checker", "main"):
            raise ValueError(f"target must be 'checker' or 'main', got {target!r}")
        self.models: List[FaultModel] = list(models)
        self.target = target
        self.stats = InjectionStats()
        #: ID of the checker core currently replaying, set by the engine
        #: via :meth:`begin_check` so core-bound models only fire on
        #: their own hardware (None during main-core injection).
        self.current_checker_id: int | None = None
        #: Telemetry bus (set by the engine when tracing is enabled).
        #: Emission happens only when a fault actually fires — never on
        #: the per-operation clean path.
        self.tracer: "Tracer | None" = None
        #: Sum of arrival clamp events already reported to telemetry.
        self._clamp_events_reported = 0

    def _trace_fault(self, site: str, model: "FaultModel") -> None:
        tracer = self.tracer
        if tracer is None:
            return
        core = self.current_checker_id
        detail = f"{site}:{type(model).__name__}"
        fire_detail = model.describe_last_fire()
        if fire_detail:
            detail = f"{detail} {fire_detail}"
        tracer.emit(
            "faults",
            "inject",
            core=core if core is not None else -1,
            detail=detail,
        )
        tracer.metrics.inc("faults.injected")
        tracer.metrics.inc(f"faults.injected.{site}")

    # -- configuration ---------------------------------------------------------------
    def set_rate(self, rate: float) -> None:
        """Update every model's per-operation fault probability.

        Permanent models (stuck-at defects) ignore the update: a broken
        wire does not heal when the voltage rises.  When the requested
        rate falls inside ``(0, MIN_RATE)`` the arrival process clamps
        it to "never fires" — the ``faults.rate_clamped`` metric counts
        those events so a sweep that silently bottoms out is visible.
        """
        for model in self.models:
            model.set_rate(rate)
        tracer = self.tracer
        if tracer is not None:
            total = sum(model.arrival.clamp_events for model in self.models)
            delta = total - self._clamp_events_reported
            if delta > 0:
                self._clamp_events_reported = total
                tracer.metrics.inc("faults.rate_clamped", float(delta))

    def set_voltage(self, voltage: float) -> None:
        """Propagate a DVFS supply-voltage change to every model.

        For transient models this is a no-op (the engine couples their
        rate through the voltage→rate curve separately); map-based SRAM
        models re-threshold their bit-cell maps.  Emits one
        ``faults/sram_map`` event per model whose active-cell set
        changed, carrying the new count.
        """
        tracer = self.tracer
        for model in self.models:
            if model.on_voltage(voltage) and tracer is not None:
                tracer.emit(
                    "faults",
                    "sram_map",
                    value=float(getattr(model, "active_cell_count", 0)),
                    detail=model.describe(),
                )

    @property
    def enabled(self) -> bool:
        return any(model.rate > 0 or model.persistent for model in self.models)

    def persistent_descriptions(self) -> List[str]:
        """Describe every permanent defect, for failure diagnostics."""
        return [model.describe() for model in self.models if model.persistent]

    def begin_check(self, core_id: "int | None") -> None:
        """Note which checker core is about to replay a segment.

        Called with the core before the fast-path query and with None
        when the check window closes, so core-bound models always know
        whose hardware they are corrupting.
        """
        self.current_checker_id = core_id
        for model in self.models:
            model.begin_check(core_id)

    def _applies(self, model: FaultModel) -> bool:
        return (
            model.bound_checker_id is None
            or model.bound_checker_id == self.current_checker_id
        )

    # -- fast-path support --------------------------------------------------------------
    def _domain_count(self, model: FaultModel, segment: LogSegment) -> int:
        if model.domain is FaultDomain.INSTRUCTIONS:
            return segment.instruction_count
        if model.domain is FaultDomain.LOADS:
            return segment.load_count
        if model.domain is FaultDomain.STORES:
            return segment.store_count
        # UNIT_INSTRUCTIONS: only instructions of the unit that write a
        # register count (a no-effect instruction injects nothing).
        return segment.unit_dest_counts[model.unit_index]  # type: ignore[index]

    def fires_within_segment(self, segment: LogSegment) -> bool:
        """Could any model fire while checking ``segment``?  Non-consuming.

        Each applicable model answers :meth:`FaultModel.may_fire_in_segment`
        with its domain's count: from its clean operations, or, for the
        address-correlated SRAM models, from the rows and addresses the
        replay would touch.  A segment is only ever skipped when *no*
        model could possibly fire in it.
        """
        return any(
            model.may_fire_in_segment(segment, self._domain_count(model, segment))
            for model in self.models
            if self._applies(model)
        )

    def skip_segment(self, segment: LogSegment) -> None:
        """Consume a segment's operations without replaying it.

        Only valid when :meth:`fires_within_segment` returned False.
        Models bound to a different checker core saw none of the
        segment's operations, so their processes do not advance.
        """
        for model in self.models:
            if self._applies(model):
                model.advance_clean(self._domain_count(model, segment))
        self.stats.segments_skipped += 1

    def replay_budgets(
        self,
    ) -> "List[Tuple[Optional[int], float, Callable[[int], None]]] | None":
        """The per-instruction form of :meth:`fires_within_segment`.

        One ``(unit, clean, advance)`` per applicable model whose
        :meth:`FaultModel.clean_operations` is finite: it counts every
        instruction (``unit`` None) or the register-writing instructions
        of the unit with index ``unit``; the next ``clean`` of them
        cannot fire; ``advance(n)`` consumes ``n`` of them (its
        :meth:`FaultModel.advance_clean`).  Compiled replay runs such
        clean instructions without the hooks.  Load- and store-domain
        models are not asked: the replay port serves them on every
        path, compiled code included.  None when an applicable model
        answers None (stuck-at, SRAM register file, a burst model that
        may fire): that check steps every instruction through the
        hooks.  Non-consuming.
        """
        budgets = []
        for model in self.models:
            if model.domain in _PORT_DOMAINS or not self._applies(model):
                continue
            clean = model.clean_operations()
            if clean is None:
                return None
            if clean != math.inf:
                budgets.append((model.unit_index, clean, model.advance_clean))
        return budgets

    # -- SegmentFaultHook protocol ----------------------------------------------------------
    def after_instruction(
        self, state: ArchState, unit: int, slot: int, index: int
    ) -> None:
        for model in self.models:
            if self._applies(model) and model.on_instruction(state, unit, slot):
                self.stats.instruction_faults += 1
                self._trace_fault("instruction", model)

    def corrupt_load(self, op_index: int, address: int, value: int) -> int:
        # At most one fault per operation: once a model corrupts the
        # value, stop — chaining further models through the already
        # corrupted value double-counts (and can silently cancel) faults.
        for model in self.models:
            if not self._applies(model):
                continue
            value, fired = model.on_load(op_index, address, value)
            if fired:
                self.stats.load_faults += 1
                self._trace_fault("load", model)
                break
        return value

    def corrupt_store(self, op_index: int, address: int, value: int) -> int:
        for model in self.models:
            if not self._applies(model):
                continue
            value, fired = model.on_store(op_index, address, value)
            if fired:
                self.stats.store_faults += 1
                self._trace_fault("store", model)
                break
        return value


#: Model kinds :func:`default_injector` knows how to build.
DEFAULT_MODEL_KINDS = ("register", "unit", "memory")


def default_injector(
    rate: float,
    seed: int = 12345,
    target: str = "checker",
    models: Sequence[str] = DEFAULT_MODEL_KINDS,
    bound_checker: "int | None" = None,
    stuck_unit: "FunctionalUnit | None" = None,
) -> FaultInjector:
    """The paper's composite setup: one model of each kind, equal rates.

    The default mix is the paper's: register faults over all categories,
    a defective integer multiplier as the combinational-fault
    representative, and load-data log faults as the memory
    representative.  ``models`` composes any subset of ``"register"``,
    ``"unit"``, ``"memory"``, plus the resilience layer's ``"stuckat"``
    (permanent, optionally bound to checker ``bound_checker``) and
    ``"burst"`` (Gilbert–Elliott intermittent) modes.
    """
    from ..isa import FunctionalUnit as FU
    from .models import (
        BurstFaultModel,
        FunctionalUnitFaultModel,
        MemoryFaultModel,
        RegisterFaultModel,
        StuckAtFaultModel,
    )

    rng = np.random.default_rng(seed)
    built: List[FaultModel] = []
    for kind in models:
        if kind == "register":
            built.append(RegisterFaultModel(rate, rng))
        elif kind == "unit":
            built.append(FunctionalUnitFaultModel(rate, rng, FU.INT_MUL))
        elif kind == "memory":
            built.append(MemoryFaultModel(rate, rng, target="load"))
        elif kind == "stuckat":
            built.append(
                StuckAtFaultModel(
                    rng,
                    unit=stuck_unit if stuck_unit is not None else FU.INT_ALU,
                    bit=int(rng.integers(48)),
                    bound_checker_id=bound_checker,
                )
            )
        elif kind == "burst":
            built.append(BurstFaultModel(rate, rng))
        else:
            raise ValueError(f"unknown fault model kind {kind!r}")
    return FaultInjector(built, target=target)
