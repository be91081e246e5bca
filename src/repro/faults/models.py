"""Fault models (section V-A, extended with permanent/intermittent faults).

The paper injects errors "in three ways, to approximate the wide variety
of possible faults that can happen in hardware":

* **Memory faults** — flip one bit of the data carried by a memory
  operation in the load-store log; gaps count targeted operations
  (either only loads or only stores).
* **Combinational (functional-unit) faults** — a defective unit corrupts
  the registers modified by instructions that use it; instructions that
  touch no register inject nothing.
* **Register faults** of unknown origin — flip a single random bit in a
  random register of a targeted category (integers, floats, flags, or
  miscellaneous); gaps count executed instructions.

Each model owns a :class:`~repro.faults.arrival.GeometricArrival` in its
domain and knows how to corrupt checker state when it fires.

Beyond the paper's transient Bernoulli faults, the resilience layer adds
the failure modes that dominate real near-threshold operation:

* :class:`StuckAtFaultModel` — a *permanent* stuck-at bit in a functional
  unit's result path.  It fires on every affected instruction regardless
  of voltage, so rollback-and-retry alone can never clear it; only
  checker quarantine (for a checker-local defect) or a typed
  forward-progress failure resolves the run.
* :class:`BurstFaultModel` — *intermittent* Gilbert–Elliott bursts: a
  two-state Markov chain alternating between a quiet good state and an
  error-dense bad state, modelling voltage droops, temperature transients
  and marginal cells.
"""

from __future__ import annotations

import bisect
import enum
import math
from typing import Optional, Sequence, Tuple

import numpy as np

from ..isa import FunctionalUnit
from ..isa.decode import NO_SLOT, UNIT_INDEX
from ..isa.registers import NUM_FP_REGS, NUM_INT_REGS, REG_ZERO
from ..isa.registers import RegisterCategory, slot_bit
from ..isa.state import ArchState
from .arrival import GeometricArrival


def _choice_cdf(weights: np.ndarray) -> Tuple[float, ...]:
    """The cumulative distribution numpy's weighted ``Generator.choice``
    builds from ``p = weights / weights.sum()``: one ``random()`` draw
    bisected into it picks what ``choice(len(weights), p=p)`` would."""
    cdf = np.cumsum(weights / weights.sum())
    return tuple((cdf / cdf[-1]).tolist())


class FaultDomain(enum.Enum):
    """What the geometric gap counts."""

    INSTRUCTIONS = "instructions"
    UNIT_INSTRUCTIONS = "unit instructions"
    LOADS = "loads"
    STORES = "stores"


class FaultModel:
    """Base class: a geometric arrival plus a corruption action.

    Each corruption hook gets the one fact the modelled hardware
    corrupts: a retired instruction's unit and written register slot,
    or a replayed memory operation's index and logged address.  Its one
    budget answer, :meth:`clean_operations`, decides both the segment
    skip and how far compiled replay may run without the hooks."""

    domain: FaultDomain
    #: The unit a ``UNIT_INSTRUCTIONS`` model counts the register writes
    #: of, as a :data:`~repro.isa.decode.UNIT_INDEX` value.
    unit_index: Optional[int] = None
    #: Permanent defects survive voltage escalation; the forward-progress
    #: guard names them in its failure diagnostics.
    persistent: bool = False

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        self.rng = rng
        self.arrival = GeometricArrival(rate, rng)
        #: When set, the model only fires while the named checker core is
        #: replaying — a core-local hardware defect.  None = any core.
        self.bound_checker_id: Optional[int] = None

    @property
    def rate(self) -> float:
        return self.arrival.rate

    def set_rate(self, rate: float) -> None:
        self.arrival.set_rate(rate)

    def on_voltage(self, voltage: float) -> bool:
        """React to a supply-voltage change; True if behaviour changed.

        Transient models follow the voltage through ``set_rate`` (the
        voltage→rate curve); map-based models (:class:`~repro.faults.
        sram.SramFaultModel`) instead re-threshold their bit-cell map
        here.  The default is a no-op.
        """
        return False

    def describe(self) -> str:
        """Human-readable identity, used in failure diagnostics."""
        return type(self).__name__

    def describe_last_fire(self) -> Optional[str]:
        """Optional per-fire detail (cell coordinates...) for telemetry."""
        return None

    # -- fast-path support ------------------------------------------------------
    def clean_operations(self) -> Optional[float]:
        """How many more operations of this model's domain cannot fire:
        the one budget question.  No state change.

        ``math.inf`` means the model never fires; None means it cannot
        say (a stuck-at or SRAM model, or a burst model that may enter
        or is in a burst).  None is the default, so a new model opts in.
        """
        return None

    def may_fire_in_segment(self, segment, count: int) -> bool:
        """Could this model fire while ``segment`` replays, ``count``
        operations of its domain?  False lets the engine skip the replay.

        Derived from :meth:`clean_operations`: any operation may fire
        when the model cannot say, else only one past the clean ones.
        Address-correlated models (SRAM) override it to inspect the
        rows and addresses the replay would touch.
        """
        clean = self.clean_operations()
        return count > 0 if clean is None else clean < count

    def advance_clean(self, count: int) -> None:
        """Consume ``count`` operations known (by the caller) to be clean."""
        fired = self.arrival.advance(count)
        if fired is not None:  # pragma: no cover - guarded by caller
            raise RuntimeError("advance_clean consumed a firing arrival")

    # Subclasses implement the hooks relevant to their domain; the rest
    # stay no-ops so an injector can drive a heterogeneous model list.
    def begin_check(self, core_id: Optional[int]) -> None:
        """Called before a segment is replayed (or skipped); ``core_id``
        is the replaying checker, None when the check window closes."""

    def on_instruction(self, state: ArchState, unit: int, slot: int) -> bool:
        """Called after each executed instruction, with its unit index
        and the register slot it wrote (:data:`~repro.isa.decode.NO_SLOT`
        for none), both from the decode table; True if a fault fired."""
        return False

    def on_load(self, op_index: int, address: int, value: int) -> "tuple[int, bool]":
        """Map the value of replayed load ``op_index``, logged at
        ``address``; True if corrupted."""
        return value, False

    def on_store(self, op_index: int, address: int, value: int) -> "tuple[int, bool]":
        """Map the reference value of replayed store ``op_index``,
        logged at ``address``; True if corrupted."""
        return value, False


class RegisterFaultModel(FaultModel):
    """Random single-bit flip in a register of the targeted category."""

    domain = FaultDomain.INSTRUCTIONS

    #: Candidate categories when none is pinned, weighted roughly by the
    #: amount of state in each.
    _CATEGORIES: Sequence[RegisterCategory] = (
        RegisterCategory.INT,
        RegisterCategory.FLOAT,
        RegisterCategory.FLAGS,
        RegisterCategory.MISC,
    )
    _WEIGHTS = np.array([NUM_INT_REGS * 64, NUM_FP_REGS * 64, 4, 16], dtype=float)
    _CDF = _choice_cdf(_WEIGHTS)

    def __init__(
        self,
        rate: float,
        rng: np.random.Generator,
        category: Optional[RegisterCategory] = None,
    ) -> None:
        super().__init__(rate, rng)
        self.category = category

    def clean_operations(self) -> float:
        return self.arrival.clean_operations()

    def _pick_category(self) -> RegisterCategory:
        if self.category is not None:
            return self.category
        return self._CATEGORIES[bisect.bisect_right(self._CDF, self.rng.random())]

    def on_instruction(self, state: ArchState, unit: int, slot: int) -> bool:
        if not self.arrival.step():
            return False
        category = self._pick_category()
        if category is RegisterCategory.INT:
            index = int(self.rng.integers(NUM_INT_REGS))
        elif category is RegisterCategory.FLOAT:
            index = int(self.rng.integers(NUM_FP_REGS))
        else:
            index = 0
        bit = int(self.rng.integers(64))
        state.flip_bit(category, index, bit)
        return True


class FunctionalUnitFaultModel(FaultModel):
    """A defective functional unit corrupts its destination registers."""

    domain = FaultDomain.UNIT_INSTRUCTIONS

    def __init__(
        self, rate: float, rng: np.random.Generator, unit: FunctionalUnit
    ) -> None:
        super().__init__(rate, rng)
        self.unit = unit
        self.unit_index = UNIT_INDEX[unit]

    def clean_operations(self) -> float:
        return self.arrival.clean_operations()

    def on_instruction(self, state: ArchState, unit: int, slot: int) -> bool:
        # "An instruction that has no effect is indistinguishable from a
        # discarded instruction: no error is injected."
        if unit != self.unit_index or slot == NO_SLOT:
            return False
        if not self.arrival.step():
            return False
        state.regs.flip_slot(slot, int(self.rng.integers(64)))
        return True


class MemoryFaultModel(FaultModel):
    """Single-bit flip in the data carried by a logged memory operation."""

    def __init__(
        self, rate: float, rng: np.random.Generator, target: str = "load"
    ) -> None:
        if target not in ("load", "store"):
            raise ValueError(f"target must be 'load' or 'store', got {target!r}")
        super().__init__(rate, rng)
        self.target = target
        self.domain = FaultDomain.LOADS if target == "load" else FaultDomain.STORES

    def clean_operations(self) -> float:
        return self.arrival.clean_operations()

    def on_load(self, op_index: int, address: int, value: int) -> "tuple[int, bool]":
        if self.target != "load" or not self.arrival.step():
            return value, False
        return value ^ (1 << int(self.rng.integers(64))), True

    def on_store(self, op_index: int, address: int, value: int) -> "tuple[int, bool]":
        if self.target != "store" or not self.arrival.step():
            return value, False
        return value ^ (1 << int(self.rng.integers(64))), True


class StuckAtFaultModel(FaultModel):
    """A permanent stuck-at bit in a functional unit's result path.

    Every instruction executed on ``unit`` that writes a register has the
    targeted bit of its destination forced to ``stuck_value``.  The fault
    is *voltage-independent*: raising the supply toward the safe point
    cannot clear it, which is exactly what distinguishes a permanent
    defect from the paper's transient undervolting errors.  Bind it to a
    checker core (``bound_checker_id``) to model a defective checker that
    the health tracker should quarantine; leave it unbound to model a
    pervasive defect that only a forward-progress failure can surface.
    """

    domain = FaultDomain.UNIT_INSTRUCTIONS
    persistent = True

    def __init__(
        self,
        rng: np.random.Generator,
        unit: FunctionalUnit = FunctionalUnit.INT_ALU,
        bit: int = 0,
        stuck_value: int = 1,
        bound_checker_id: Optional[int] = None,
    ) -> None:
        if stuck_value not in (0, 1):
            raise ValueError(f"stuck_value must be 0 or 1, got {stuck_value}")
        # Rate 0: the geometric arrival never drives this model; firing is
        # deterministic per affected instruction.
        super().__init__(0.0, rng)
        self.unit = unit
        self.unit_index = UNIT_INDEX[unit]
        self.bit = int(bit) % 64
        self.stuck_value = stuck_value
        self.bound_checker_id = bound_checker_id

    def describe(self) -> str:
        where = (
            f"checker {self.bound_checker_id}"
            if self.bound_checker_id is not None
            else "all cores"
        )
        return (
            f"stuck-at-{self.stuck_value} bit {self.bit} of "
            f"{self.unit.value} ({where})"
        )

    def set_rate(self, rate: float) -> None:
        """Permanent defects do not follow the voltage-dependent rate."""

    def on_instruction(self, state: ArchState, unit: int, slot: int) -> bool:
        # x0 is hard-wired; a stuck bit there lands nowhere.
        if unit != self.unit_index or slot == NO_SLOT or slot == REG_ZERO:
            return False
        regs = state.regs
        value = regs.read_slot(slot)
        mask = slot_bit(slot, self.bit)
        forced = (value | mask) if self.stuck_value else (value & ~mask)
        if forced == value:
            return False  # the bit already held the stuck value: masked
        regs.write_slot(slot, forced)
        return True


class BurstFaultModel(FaultModel):
    """Gilbert–Elliott intermittent bursts of register corruption.

    A two-state Markov chain advances one step per executed instruction:
    in the *good* state nothing fires and each step enters the *bad*
    state with probability ``rate * entry_scale``; in the bad state each
    instruction faults with probability ``burst_rate`` (a single-bit flip
    in the destination register, or in a random integer register when
    the instruction writes none) and the burst ends with probability
    ``1 / mean_burst_ops``.  ``set_rate`` keeps the entry probability
    coupled to the voltage-dependent base rate, so escalating the supply
    voltage makes new bursts (but not an in-flight one) vanishingly rare.
    """

    domain = FaultDomain.INSTRUCTIONS

    def __init__(
        self,
        rate: float,
        rng: np.random.Generator,
        burst_rate: float = 0.05,
        mean_burst_ops: float = 400.0,
        entry_scale: float = 10.0,
    ) -> None:
        super().__init__(0.0, rng)  # the arrival process is unused
        if not 0 <= burst_rate <= 1:
            raise ValueError(f"burst_rate must be within [0, 1], got {burst_rate}")
        if mean_burst_ops <= 0:
            raise ValueError("mean_burst_ops must be positive")
        self.burst_rate = float(burst_rate)
        self.exit_probability = min(1.0, 1.0 / float(mean_burst_ops))
        self.entry_scale = float(entry_scale)
        self._base_rate = float(rate)
        self.in_burst = False
        self.bursts_entered = 0

    @property
    def rate(self) -> float:
        return self._base_rate

    @property
    def entry_probability(self) -> float:
        return min(1.0, self._base_rate * self.entry_scale)

    def set_rate(self, rate: float) -> None:
        self._base_rate = float(rate)

    def describe(self) -> str:
        return (
            f"gilbert-elliott bursts (entry {self.entry_probability:.2e}, "
            f"burst rate {self.burst_rate:.2e})"
        )

    def clean_operations(self) -> Optional[float]:
        """Unbounded while quiet with no way in, since the chain then
        draws nothing; otherwise it cannot say."""
        if self.in_burst or self.entry_probability > 0:
            return None
        return math.inf

    def _step_chain(self) -> bool:
        """Advance one operation; True if this operation faults."""
        if self.in_burst:
            if self.rng.random() < self.burst_rate:
                fired = True
            else:
                fired = False
            if self.rng.random() < self.exit_probability:
                self.in_burst = False
            return fired
        if self.entry_probability > 0 and self.rng.random() < self.entry_probability:
            self.in_burst = True
            self.bursts_entered += 1
        return False

    def on_instruction(self, state: ArchState, unit: int, slot: int) -> bool:
        if not self._step_chain():
            return False
        bit = int(self.rng.integers(64))
        if slot == NO_SLOT:
            # Integer register ``i`` is slot ``i``.
            slot = int(self.rng.integers(NUM_INT_REGS))
        state.regs.flip_slot(slot, bit)
        return True
