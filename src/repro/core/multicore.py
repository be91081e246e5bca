"""Multi-main-core ParaDox: M producers sharing one checker pool.

Each main core is one :class:`~repro.core.engine.SimulationEngine`
running its own program, log segments, checkpoints, DVFS controller, and
fault injector.  What M changes is the checker pool: all engines
schedule over one :class:`~repro.scheduling.pool.CheckerPool`, so a core
waiting on a checker another core occupies shows up as a checker-wait
stall in its own timeline.  The paper's single-core system is the M=1
case: the one engine calls the pool directly, on the calling thread.

With M > 1, execution is a conservative discrete-event co-simulation:
one OS thread per engine, every pool interaction taking its turn through
the engine's :class:`~repro.scheduling.shared.SharedPoolView`, so
interactions execute in globally sorted simulated-time order regardless
of OS scheduling.  Results are therefore deterministic — the same specs
and seed produce bit-identical :class:`MulticoreResult`\\ s on every run.

Asymmetric scenarios fall out of the per-core spec: each
:class:`CoreSpec` may carry its own :class:`~repro.core.systems.System`
(and hence its own voltage configuration, error model, and injector),
so a near-threshold core can share the pool with a nominal-voltage one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..parallel import derive_seed
from ..scheduling import CheckerPool
from ..scheduling.shared import DEFAULT_POOL_POLICY, PoolPolicy
from ..stats import RunResult
from ..stats.fairness import FairnessReport
from .systems import ParaDoxSystem, System, WorkloadLike


@dataclass
class CoreSpec:
    """One main core of a multi-main system."""

    workload: WorkloadLike
    #: System design point for this core; defaults to the harness-wide
    #: default (a plain ParaDox core).  Per-core systems give asymmetric
    #: scenarios: different voltage configs, error models, injectors.
    system: Optional[System] = None
    #: Fault seed; derived from the harness seed and main id when None.
    seed: Optional[int] = None
    #: Explicit injector; built by the core's system when None.
    injector: Optional[Any] = None
    #: Useful-instruction budget; the workload's default when None.
    max_instructions: Optional[int] = None


@dataclass
class MulticoreResult:
    """Outcome of one multi-main-core run."""

    results: List[RunResult]
    fairness: FairnessReport
    policy: PoolPolicy
    pool_size: int
    boot_offset: int
    #: Wall time of the slowest main core.
    wall_ns: float
    #: Multicore-source telemetry events (compact dicts), present only
    #: when the harness was traced.
    trace: Optional[List[Dict]] = None

    def to_dict(self) -> Dict[str, Any]:
        """Canonical summary (deterministic, JSON-serializable)."""
        return {
            "policy": self.policy.value,
            "pool_size": self.pool_size,
            "boot_offset": self.boot_offset,
            "wall_ns": self.wall_ns,
            "fairness": self.fairness.to_dict(),
            "cores": [
                {
                    "main_id": i,
                    "workload": r.workload,
                    "system": r.system,
                    "outcome": r.outcome.value,
                    "wall_ns": r.wall_ns,
                    "instructions": r.instructions,
                    "segments": r.segments,
                    "checker_wait_ns": r.stalls.checker_wait_ns,
                    "recoveries": len(r.recoveries),
                }
                for i, r in enumerate(self.results)
            ],
        }

    def summary(self) -> str:
        lines = [
            f"policy={self.policy.value} pool={self.pool_size} "
            f"boot_offset={self.boot_offset} wall={self.wall_ns:.0f}ns "
            f"wait_gini={self.fairness.wait_gini:.3f}"
        ]
        for i, r in enumerate(self.results):
            share = self.fairness.dispatch_share[i]
            lines.append(
                f"  main{i} {r.workload:>12s}: wall={r.wall_ns:.0f}ns "
                f"wait={r.stalls.checker_wait_ns:.0f}ns "
                f"dispatch_share={share:.3f}"
            )
        return "\n".join(lines)


def run_engines(engines: Sequence[Any], budgets: Sequence[int]) -> List[RunResult]:
    """Run the engines of one pool to completion; deterministic.

    One main core runs on the calling thread.  Otherwise one OS thread
    per engine; the pool's turnstile, which their views take turns
    through, serializes every pool interaction into global
    simulated-time order.  The first engine error (by main id) is
    re-raised on the calling thread.
    """
    turnstile = engines[0].pool.turnstile
    if turnstile is None:  # one main core: the pool's only caller
        (engine,) = engines
        return [engine.run(budgets[0])]
    n = len(engines)
    results: List[Optional[RunResult]] = [None] * n
    errors: List[Optional[BaseException]] = [None] * n

    def worker(main_id: int) -> None:
        try:
            results[main_id] = engines[main_id].run(budgets[main_id])
        except BaseException as exc:  # re-raised on the caller thread
            errors[main_id] = exc
        finally:
            # Permanently retire this main from arbitration so the
            # others never wait on a finished (or dead) producer.
            turnstile.finish(main_id)

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"main-{i}", daemon=True)
        for i in range(n)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    finished = [r for r in results if r is not None]
    assert len(finished) == n
    return finished


class MulticoreEngine:
    """Build and run M engines against one shared checker pool."""

    def __init__(
        self,
        specs: Sequence[CoreSpec],
        policy: PoolPolicy = DEFAULT_POOL_POLICY,
        pool_size: Optional[int] = None,
        seed: int = 0,
        boot_offset: Optional[int] = None,
        default_system: Optional[System] = None,
        tracing: bool = False,
    ) -> None:
        if not specs:
            raise ValueError("a multicore engine needs at least one main core")
        self.specs = list(specs)
        self.policy = policy
        self.seed = seed
        self.tracing = tracing
        self._default_system = default_system
        systems = [
            spec.system
            if spec.system is not None
            else (default_system if default_system is not None else ParaDoxSystem())
            for spec in self.specs
        ]
        self.systems: List[System] = systems
        for system in systems:
            options = system._options()
            if not options.checking:
                raise ValueError(
                    f"system {system.name!r} does not check (checking=False); "
                    "every main core of a shared pool must dispatch segments"
                )
        size = pool_size if pool_size is not None else systems[0].config.checker.count
        if boot_offset is None:
            # The anti-ageing rotation is a harness-level draw: the pool
            # is one physical structure, not M private ones.
            rng = np.random.default_rng(derive_seed(seed, "mc-boot"))
            boot_offset = int(rng.integers(size))
        self.pool = CheckerPool(
            size, boot_offset=boot_offset, main_count=len(self.specs), policy=policy
        )
        self.engines = []
        for main_id, (spec, system) in enumerate(zip(self.specs, systems)):
            run_seed = (
                spec.seed
                if spec.seed is not None
                else derive_seed(seed, "mc", main_id)
            )
            engine = system.engine(
                spec.workload,
                seed=run_seed,
                injector=spec.injector,
                pool=self.pool,
                main_id=main_id,
            )
            self.engines.append(engine)

    def run(self) -> MulticoreResult:
        """Run every main core to completion; deterministic."""
        budgets = [
            spec.max_instructions
            if spec.max_instructions is not None
            else spec.workload.max_instructions
            for spec in self.specs
        ]
        finished = run_engines(self.engines, budgets)
        wall_ns = max(r.wall_ns for r in finished)
        fairness = FairnessReport.from_pool(self.pool, wall_ns)
        trace = (
            fairness_trace_events(
                finished, fairness, wall_ns, seed=self.seed, policy=self.policy
            )
            if self.tracing
            else None
        )
        return MulticoreResult(
            results=finished,
            fairness=fairness,
            policy=self.policy,
            pool_size=len(self.pool),
            boot_offset=self.pool.boot_offset,
            wall_ns=wall_ns,
            trace=trace,
        )



def fairness_trace_events(
    results: Sequence[RunResult],
    fairness: FairnessReport,
    wall_ns: float,
    seed: int = 0,
    policy: PoolPolicy = DEFAULT_POOL_POLICY,
) -> List[Dict]:
    """Multicore-source telemetry events for the JSONL exporters."""
    from ..telemetry import Tracer

    tracer = Tracer(
        system="multicore",
        workload="+".join(r.workload for r in results),
        seed=seed,
        policy=policy.value,
    )
    for main_id, result in enumerate(results):
        tracer.emit(
            "multicore",
            "core_done",
            time_ns=result.wall_ns,
            core=main_id,
            value=result.wall_ns,
            detail=result.workload,
        )
    for main_id in range(len(results)):
        tracer.emit(
            "multicore",
            "dispatch_share",
            time_ns=wall_ns,
            core=main_id,
            value=fairness.dispatch_share[main_id],
        )
        tracer.emit(
            "multicore",
            "busy_share",
            time_ns=wall_ns,
            core=main_id,
            value=fairness.busy_share[main_id],
        )
        tracer.emit(
            "multicore",
            "wait_ns",
            time_ns=wall_ns,
            core=main_id,
            value=fairness.wait_ns[main_id],
        )
    tracer.emit("multicore", "wait_gini", time_ns=wall_ns, value=fairness.wait_gini)
    return [event.to_dict() for event in tracer.events]


def run_multicore(
    workloads: Sequence[WorkloadLike],
    system: Optional[System] = None,
    policy: PoolPolicy = DEFAULT_POOL_POLICY,
    pool_size: Optional[int] = None,
    seed: int = 0,
    max_instructions: Optional[int] = None,
    tracing: bool = False,
) -> MulticoreResult:
    """Convenience wrapper: one workload per main core, one shared system."""
    specs = [
        CoreSpec(workload=w, max_instructions=max_instructions) for w in workloads
    ]
    harness = MulticoreEngine(
        specs,
        policy=policy,
        pool_size=pool_size,
        seed=seed,
        default_system=system,
        tracing=tracing,
    )
    return harness.run()
