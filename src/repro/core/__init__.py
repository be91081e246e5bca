"""The primary contribution: ParaDox (and its comparison systems).

This package assembles every substrate — ISA, cores, memory hierarchy,
load-store log, checkpointing, scheduling, fault injection and DVFS —
into runnable systems.
"""

from .analysis import (
    OverheadParameters,
    expected_waste_per_error,
    livelock_rate,
    optimal_segment_length,
    overhead_per_instruction,
    predicted_slowdown,
    rerun_inflation,
    young_daly_length,
)
from ..resilience.guard import (
    ForwardProgressDiagnostics,
    ForwardProgressFailure,
    ResilienceConfig,
)
from .engine import EngineOptions, PendingCheck, SimulationEngine
from .multicore import CoreSpec, MulticoreEngine, MulticoreResult, run_multicore
from .systems import (
    BaselineSystem,
    DetectionOnlySystem,
    ParaDoxSystem,
    ParaMedicSystem,
    System,
    WorkloadLike,
)

__all__ = [
    "BaselineSystem",
    "CoreSpec",
    "MulticoreEngine",
    "MulticoreResult",
    "run_multicore",
    "DetectionOnlySystem",
    "EngineOptions",
    "ForwardProgressDiagnostics",
    "ForwardProgressFailure",
    "OverheadParameters",
    "ResilienceConfig",
    "ParaDoxSystem",
    "ParaMedicSystem",
    "PendingCheck",
    "SimulationEngine",
    "System",
    "WorkloadLike",
    "expected_waste_per_error",
    "livelock_rate",
    "optimal_segment_length",
    "overhead_per_instruction",
    "predicted_slowdown",
    "rerun_inflation",
    "young_daly_length",
]
