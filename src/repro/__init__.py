"""ParaDox: eliminating voltage margins via heterogeneous fault tolerance.

A full-system Python reproduction of Ainsworth, Zoubritzky, Mycroft &
Jones, HPCA 2021.  The headline API:

>>> from repro import ParaDoxSystem, build_bitcount
>>> system = ParaDoxSystem()
>>> result = system.run(build_bitcount(values=16))
>>> result.errors_detected
0

Subpackages: ``isa`` (functional substrate), ``cores`` (timing models),
``memory`` (caches), ``lslog`` (load-store log), ``checkpoint``,
``scheduling``, ``faults`` (injection), ``dvfs``, ``power``, ``core``
(the assembled systems), ``workloads``, ``experiments`` (figure
harnesses).
"""

from .config import SystemConfig, table1_config
from .core import (
    BaselineSystem,
    DetectionOnlySystem,
    EngineOptions,
    ParaDoxSystem,
    ParaMedicSystem,
    SimulationEngine,
)
from .faults import (
    FaultInjector,
    FunctionalUnitFaultModel,
    MemoryFaultModel,
    RegisterFaultModel,
    VoltageErrorModel,
    default_injector,
)
from .stats import RecoveryEvent, RunResult
from .workloads import (
    Workload,
    build_bitcount,
    build_crc32,
    build_matmul,
    build_quicksort,
    build_spec_suite,
    build_spec_workload,
    build_stream,
    build_synthetic,
    golden_run,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineSystem",
    "DetectionOnlySystem",
    "EngineOptions",
    "FaultInjector",
    "FunctionalUnitFaultModel",
    "MemoryFaultModel",
    "ParaDoxSystem",
    "ParaMedicSystem",
    "RecoveryEvent",
    "RegisterFaultModel",
    "RunResult",
    "SimulationEngine",
    "SystemConfig",
    "VoltageErrorModel",
    "Workload",
    "__version__",
    "build_bitcount",
    "build_crc32",
    "build_matmul",
    "build_quicksort",
    "build_spec_suite",
    "build_spec_workload",
    "build_stream",
    "build_synthetic",
    "default_injector",
    "golden_run",
    "table1_config",
]
