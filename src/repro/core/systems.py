"""The four system design points evaluated in the paper.

* :class:`BaselineSystem` — an unprotected commodity core with standard
  voltage margins.  Every figure normalises against it (or against
  error-free ParaMedic, built from :class:`ParaMedicSystem`).
* :class:`DetectionOnlySystem` — Ainsworth & Jones' parallel error
  *detection* [8]: checker cores and logs, but no rollback storage and no
  unchecked-store buffering (figure 10's first bar).
* :class:`ParaMedicSystem` — full error *correction* [10]: word-granular
  rollback data, L1 buffering of unchecked stores, round-robin checker
  allocation, checkpoints grown to the 5,000-instruction cap.
* :class:`ParaDoxSystem` — this paper: AIMD checkpoint lengths with the
  clamp-to-observed rule, line-granularity rollback, lowest-free-ID
  checker scheduling with power gating, and (optionally) the dynamic
  voltage/frequency controller bound to the exponential error model.

Each ``run`` builds a fresh engine so systems are reusable and runs are
independent and deterministic given their seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol

import numpy as np

from ..config import SystemConfig, table1_config
from ..faults.injector import FaultInjector, default_injector
from ..faults.voltage_model import VoltageErrorModel
from ..isa import MemoryImage, Program
from ..lslog.segment import RollbackGranularity
from ..resilience.guard import ResilienceConfig
from ..scheduling import SchedulingPolicy
from ..stats import RunResult
from .engine import EngineOptions, SimulationEngine


class WorkloadLike(Protocol):
    """Anything that can be simulated: a program plus its initial memory."""

    name: str
    program: Program

    def create_memory(self) -> MemoryImage:
        """Fresh initial memory image for one run."""
        ...

    @property
    def max_instructions(self) -> int:
        """Default useful-instruction budget."""
        ...


@dataclass
class System:
    """Common factory machinery; concrete systems pin the options."""

    config: SystemConfig = field(default_factory=table1_config)
    name: str = "system"
    #: Record a structured telemetry trace + metrics for every run built
    #: by this system (see :mod:`repro.telemetry`).  Off by default: the
    #: disabled path costs nothing.
    tracing: bool = False
    #: Assert engine bookkeeping invariants at segment granularity for
    #: every run built by this system (see
    #: :mod:`repro.oracle.invariants`).  Off by default, same zero-cost
    #: discipline as ``tracing``.
    paranoid: bool = False
    #: Run the main core through the compiled superblock tier
    #: (:mod:`repro.jit`).  On by default — results are bit-identical
    #: to interpretation and the differential oracle gates that; set
    #: False (CLI ``--no-jit``) to force the pure interpreter.
    jit: bool = True

    def _options(self) -> EngineOptions:
        raise NotImplementedError

    def _injector(self, seed: int) -> Optional[FaultInjector]:
        rate = self.config.fault.error_rate
        if rate <= 0:
            return None
        return default_injector(rate, seed=seed, target=self.config.fault.target)

    def engine(
        self,
        workload: WorkloadLike,
        seed: Optional[int] = None,
        injector: Optional[FaultInjector] = None,
        pool=None,
        main_id: int = 0,
    ) -> SimulationEngine:
        """Build a ready-to-run engine for ``workload``.

        ``pool``/``main_id`` make the engine main core
        ``main_id`` of a multi-main-core system (see
        :mod:`repro.core.multicore`); left at their defaults the engine
        builds its own private pool.
        """
        seed = self.config.fault.seed if seed is None else seed
        if injector is None:
            injector = self._injector(seed)
        options = self._options()
        if self.tracing:
            options.tracing = True
        if self.paranoid:
            options.paranoid = True
        if not self.jit:
            options.jit = False
        return SimulationEngine(
            workload.program,
            self.config,
            options,
            injector=injector,
            memory=workload.create_memory(),
            system_name=self.name,
            rng=np.random.default_rng(seed),
            pool=pool,
            main_id=main_id,
        )

    def run(
        self,
        workload: WorkloadLike,
        max_instructions: Optional[int] = None,
        seed: Optional[int] = None,
        injector: Optional[FaultInjector] = None,
    ) -> RunResult:
        """Simulate ``workload`` to completion (or its instruction budget)."""
        engine = self.engine(workload, seed=seed, injector=injector)
        budget = max_instructions if max_instructions is not None else workload.max_instructions
        return engine.run(budget)


@dataclass
class BaselineSystem(System):
    """Unprotected, margined commodity core: no checkers at all."""

    name: str = "baseline"

    def _options(self) -> EngineOptions:
        return EngineOptions(checking=False)

    def _injector(self, seed: int) -> Optional[FaultInjector]:
        return None  # a margined baseline is assumed error-free


@dataclass
class DetectionOnlySystem(System):
    """Heterogeneous parallel error detection [8] (no correction)."""

    name: str = "detection-only"

    def _options(self) -> EngineOptions:
        return EngineOptions(
            granularity=RollbackGranularity.NONE,
            scheduling=SchedulingPolicy.ROUND_ROBIN,
            adaptive_checkpoints=False,
        )

    def _injector(self, seed: int) -> Optional[FaultInjector]:
        return None  # detection-only cannot recover; evaluated error-free


@dataclass
class ParaMedicSystem(System):
    """ParaMedic [10]: full correction, tuned for scarce errors."""

    name: str = "paramedic"

    def _options(self) -> EngineOptions:
        return EngineOptions(
            granularity=RollbackGranularity.WORD,
            scheduling=SchedulingPolicy.ROUND_ROBIN,
            adaptive_checkpoints=False,
        )


@dataclass
class ParaDoxSystem(System):
    """ParaDox: error-seeking fault tolerance (this paper)."""

    name: str = "paradox"
    #: Enable the dynamic voltage/frequency controller (section IV-B).
    dvs: bool = False
    #: Voltage-to-error-rate coupling used when ``dvs`` is on.
    voltage_model: Optional[VoltageErrorModel] = None
    #: Figure 11's comparator: constant- instead of dynamic-decrease.
    dynamic_voltage_decrease: bool = True
    #: Enable the resilience layer (forward-progress guard + checker
    #: quarantine) with default thresholds.
    resilient: bool = False
    #: Explicit resilience thresholds; implies ``resilient``.
    resilience: Optional[ResilienceConfig] = None

    def _options(self) -> EngineOptions:
        model = self.voltage_model
        if self.dvs and model is None:
            model = VoltageErrorModel.itanium_9560()
        resilience = self.resilience
        if resilience is None and self.resilient:
            resilience = ResilienceConfig()
        return EngineOptions(
            granularity=RollbackGranularity.LINE,
            scheduling=SchedulingPolicy.LOWEST_FREE_ID,
            adaptive_checkpoints=True,
            dvs=self.dvs,
            voltage_model=model,
            dynamic_voltage_decrease=self.dynamic_voltage_decrease,
            resilience=resilience,
        )

    def _injector(self, seed: int) -> Optional[FaultInjector]:
        if self.dvs:
            # Rate follows voltage; start from the model's nominal rate.
            model = self.voltage_model or VoltageErrorModel.itanium_9560()
            injector = default_injector(
                model.rate(self.config.dvfs.safe_voltage),
                seed=seed,
                target=self.config.fault.target,
            )
            return injector
        return super()._injector(seed)
