"""Crash-isolated fault-injection campaign runner.

A *campaign* fans a grid of seeds × error rates × fault-model mixes over
worker processes, one short simulation per run, and classifies every run
into the standard injection-campaign taxonomy:

* ``masked`` — completed, bit-identical to the golden run, no detections.
* ``detected_recovered`` — completed and bit-identical after one or more
  detect-and-rollback recoveries.
* ``degraded`` — completed and bit-identical, but only after the
  resilience layer intervened (checker quarantine or forward-progress
  escalation): the system is progressing with reduced capability.
* ``sdc`` — completed but the final state diverged from the golden run
  (silent data corruption — the outcome the architecture exists to
  prevent).
* ``hang`` — no forward progress: the per-run watchdog expired, the
  engine hit its livelock budget, or the forward-progress guard declared
  a typed failure at the safe voltage.
* ``crash`` — the worker process died or raised: an unhandled exception
  anywhere in the simulator is a *bug*, never folded into another class.

Each run executes in its own worker process with a private pipe via
:func:`repro.parallel.run_fanout` (extracted from this module), so a
segfaulting or hanging simulation can neither take down the campaign nor
stall it: the fan-out enforces a wall-clock deadline per run and
terminates offenders.  (A pool is deliberately *not* used — a dying pool
worker poisons the whole pool.)

The report is JSON-serialisable and carries the two acceptance signals
of the resilience layer besides the class counts: how many checkers were
quarantined across the campaign, and how many runs recovered after
voltage escalation.

Campaigns can additionally run against a **persistent store**
(:mod:`repro.store`): every classified run is committed to a WAL-mode
SQLite file as it lands, cells are identified by content-addressed run
keys, and a relaunched campaign with ``resume=True`` skips every
recorded cell — the resumed report is bit-identical (in its canonical
form, which excludes wall-clock fields) to an uninterrupted run at any
worker width.  ``shard=(k, n)`` deterministically partitions the grid
by run-key hash so one campaign can be split across machines and the
shard stores merged back into one.
"""

from __future__ import annotations

import enum
import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..ioutil import atomic_write_json
from ..parallel import FanoutOutcome, resolve_jobs, run_fanout
from .guard import ResilienceConfig

#: Fault-model mixes a campaign run can use (cycled across runs).
#: ``sram`` replays the run against a per-chip spatially correlated
#: bit-cell fault map (MoRS-style clustering); ``sram-uniform`` is the
#: same map generator with clustering ablated.
MODEL_MIXES = (
    "transient",
    "burst",
    "stuckat",
    "stuckat-global",
    "sram",
    "sram-uniform",
)


#: Override key -> (config section, field, cast) for config-space knobs
#: the explore layer may vary.  The whitelist is the contract between a
#: genome and the engine: an unknown key raises, never silently no-ops
#: (a typo'd gene that changed nothing would corrupt a whole search).
CONFIG_OVERRIDES: Dict[str, Tuple[str, str, Any]] = {
    "checker_count": ("checker", "count", int),
    "ckpt_additive_increase": ("checkpoint", "additive_increase", int),
    "ckpt_multiplicative_decrease": ("checkpoint", "multiplicative_decrease", float),
    "ckpt_initial_instructions": ("checkpoint", "initial_instructions", int),
    "dvfs_step_volts": ("dvfs", "step_volts", float),
    "dvfs_recovery_factor": ("dvfs", "recovery_factor", float),
    "dvfs_tide_slowdown": ("dvfs", "tide_slowdown", float),
    "dvfs_min_voltage": ("dvfs", "min_voltage", float),
}

#: Override key -> (ResilienceConfig field, cast).
RESILIENCE_OVERRIDES: Dict[str, Tuple[str, Any]] = {
    "guard_shrink_after": ("shrink_after", int),
    "guard_escalate_after": ("escalate_after", int),
    "quarantine_vindications": ("quarantine_vindications", int),
}


def apply_config_overrides(
    config: Any, resilience: ResilienceConfig, overrides: Mapping[str, Any]
) -> Tuple[Any, ResilienceConfig]:
    """Apply a whitelisted override dict onto (SystemConfig, ResilienceConfig)."""
    from dataclasses import replace

    for key in sorted(overrides):
        value = overrides[key]
        if key in CONFIG_OVERRIDES:
            section, field_name, cast = CONFIG_OVERRIDES[key]
            sub = getattr(config, section)
            config = replace(
                config, **{section: replace(sub, **{field_name: cast(value)})}
            )
        elif key in RESILIENCE_OVERRIDES:
            field_name, cast = RESILIENCE_OVERRIDES[key]
            resilience = replace(resilience, **{field_name: cast(value)})
        else:
            known = sorted(CONFIG_OVERRIDES) + sorted(RESILIENCE_OVERRIDES)
            raise ValueError(f"unknown config override {key!r}; known: {known}")
    return config, resilience


class RunClass(enum.Enum):
    """Six-outcome classification of one campaign run."""

    MASKED = "masked"
    DETECTED_RECOVERED = "detected_recovered"
    DEGRADED = "degraded"
    SDC = "sdc"
    HANG = "hang"
    CRASH = "crash"


@dataclass
class CampaignSpec:
    """Everything needed to reproduce a campaign."""

    workload: str = "bitcount"
    scale: float = 0.4
    #: Number of seeds; run ``seeds × len(rates)`` simulations total.
    seeds: int = 24
    first_seed: int = 0
    rates: Tuple[float, ...] = (1e-4,)
    #: Fault-model mixes, cycled run by run (see :data:`MODEL_MIXES`).
    models: Tuple[str, ...] = ("transient", "burst", "stuckat")
    #: Run the DVS controller (undervolted warm start) so the voltage
    #: escalation stage of the forward-progress guard is exercised.
    dvs: bool = True
    #: Warm-start undervolt below the safe point when ``dvs`` is on.
    initial_margin: float = 0.15
    #: Simulated chips for the ``sram``/``sram-uniform`` mixes: the grid
    #: gains a chip-seed axis so a sweep samples a *population* of dies,
    #: each with its own bit-cell map.  1 keeps the grid unchanged.
    chip_seeds: int = 1
    first_chip_seed: int = 0
    #: Pin the supply voltage of ``sram`` runs when ``dvs`` is off
    #: (None derives it from the run's rate through the voltage→rate
    #: curve, so geometric and sram runs sweep the same axis).
    voltage: Optional[float] = None
    #: Per-run wall-clock watchdog (seconds).
    timeout_s: float = 60.0
    #: Concurrent worker processes (0 = auto).
    workers: int = 0
    #: Record telemetry for every run: each worker ships its trace and
    #: metrics back through the result pipe, and the report can merge
    #: them into one metrics summary / one Perfetto artifact.
    tracing: bool = False
    #: Fault drills: run_id -> "crash" | "hang" | "error".  The worker
    #: misbehaves accordingly, proving the campaign's isolation without
    #: waiting for a real simulator bug.
    hooks: Dict[int, str] = field(default_factory=dict)
    #: Config-space overrides applied to every run (the explore layer's
    #: genome, mapped onto engine knobs by :func:`apply_config_overrides`
    #: — an unknown key is a hard error).  ``None`` leaves Table I
    #: untouched and, deliberately, serialises to *nothing*: campaigns
    #: without overrides keep their pre-overrides campaign and run keys,
    #: so existing stores keep resuming.
    overrides: Optional[Dict[str, Any]] = None
    #: Main cores sharing one checker pool per run.  1 (the default) is
    #: the classic single-producer campaign and — like ``overrides`` —
    #: serialises to *nothing*, so pre-multicore campaign and run keys
    #: (and golden reports) are untouched.
    main_cores: int = 1
    #: Shared-pool arbitration when ``main_cores > 1``: one of
    #: ``static`` / ``steal`` / ``reserve`` (None means ``steal``).
    pool_policy: Optional[str] = None

    def resolved_workers(self) -> int:
        return resolve_jobs(self.workers)

    def expand(self) -> List[Dict[str, Any]]:
        """One payload dict per run, model mixes cycled across run IDs."""
        unknown = [m for m in self.models if m not in MODEL_MIXES]
        if unknown:
            raise ValueError(
                f"unknown fault-model mixes {unknown}; choose from {MODEL_MIXES}"
            )
        policy = None
        if self.main_cores > 1:
            from ..scheduling.shared import POOL_POLICIES

            policy = self.pool_policy or "steal"
            if policy not in POOL_POLICIES:
                raise ValueError(
                    f"unknown pool policy {policy!r}; "
                    f"choose from {sorted(POOL_POLICIES)}"
                )
        payloads: List[Dict[str, Any]] = []
        for chip in range(max(1, self.chip_seeds)):
            for index in range(self.seeds):
                for rate in self.rates:
                    run_id = len(payloads)
                    payload = {
                        "run_id": run_id,
                        "workload": self.workload,
                        "scale": self.scale,
                        "seed": self.first_seed + index,
                        "rate": rate,
                        "model": self.models[run_id % len(self.models)],
                        "dvs": self.dvs,
                        "initial_margin": self.initial_margin,
                        "chip_seed": self.first_chip_seed + chip,
                        "tracing": self.tracing,
                    }
                    if self.voltage is not None:
                        payload["voltage"] = self.voltage
                    if policy is not None:
                        # Present only for multi-main campaigns: the
                        # single-core grid keeps its golden run keys.
                        payload["main_cores"] = self.main_cores
                        payload["pool_policy"] = policy
                    if self.overrides:
                        payload["overrides"] = dict(self.overrides)
                    if run_id in self.hooks:
                        payload["hook"] = self.hooks[run_id]
                    payloads.append(payload)
        return payloads

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["rates"] = list(self.rates)
        data["models"] = list(self.models)
        if not self.overrides:
            # Omitted, not null: a no-overrides spec must hash to its
            # pre-overrides campaign key (see store.runkey).
            data.pop("overrides", None)
        if self.main_cores <= 1:
            # Same contract: a single-main spec must hash to its
            # pre-multicore campaign key.
            data.pop("main_cores", None)
            data.pop("pool_policy", None)
        return data


def smoke_spec() -> CampaignSpec:
    """Small campaign used by CI: finishes in well under a minute."""
    return CampaignSpec(seeds=6, scale=0.3, rates=(3e-4,), timeout_s=30.0)


@dataclass
class RunRecord:
    """One classified campaign run."""

    run_id: int
    seed: int
    rate: float
    model: str
    workload: str
    run_class: RunClass
    #: Simulated die the run executed on (sram mixes; 0 otherwise).
    chip_seed: int = 0
    detail: str = ""
    #: Engine outcome value ("completed" etc.); None for crash/watchdog.
    outcome: Optional[str] = None
    recoveries: int = 0
    faults_injected: int = 0
    instructions: int = 0
    quarantined: List[int] = field(default_factory=list)
    #: Guard stage -> count ("shrink" / "voltage" / "fail").
    escalations: Dict[str, int] = field(default_factory=dict)
    #: Simulated wall time (ns) — deterministic, unlike ``duration_s``.
    wall_ns: float = 0.0
    #: Time-weighted mean supply voltage over the run (0.0 pre-overrides
    #: records / crashed workers).
    mean_voltage: float = 0.0
    #: Per-checker wake rates over the run window (power-model input).
    wake_rates: List[float] = field(default_factory=list)
    duration_s: float = 0.0
    #: Per-main fairness summary (``FairnessReport.to_dict()``), present
    #: only for multi-main-core runs — single-core records serialise
    #: byte-identically to their pre-multicore form.
    fairness: Optional[Dict[str, Any]] = None
    #: Worker traceback for ``crash`` records.
    traceback: Optional[str] = None
    #: Telemetry artifacts, present only when the campaign traced runs.
    metrics: Optional[Dict[str, Any]] = None
    trace: Optional[List[Dict[str, Any]]] = None

    @property
    def voltage_escalations(self) -> int:
        return self.escalations.get("voltage", 0)

    def to_dict(self, canonical: bool = False) -> Dict[str, Any]:
        data = asdict(self)
        data["run_class"] = self.run_class.value
        # The raw event stream is exported separately (JSONL/Perfetto);
        # inlining thousands of events would bloat the report JSON.
        data.pop("trace", None)
        if self.fairness is None:
            # Omitted, not null: single-core records keep their
            # pre-multicore byte-identical report form.
            data.pop("fairness", None)
        else:
            # Sorted key order so a fresh record and one round-tripped
            # through the store (which canonicalises JSON with
            # ``sort_keys``) serialise byte-identically.
            data["fairness"] = {
                key: self.fairness[key] for key in sorted(self.fairness)
            }
        if canonical:
            # Wall-clock duration is the one field a bit-identical
            # re-execution cannot reproduce.
            data.pop("duration_s", None)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output (store round-trip)."""
        return cls(
            run_id=int(data["run_id"]),
            seed=int(data["seed"]),
            rate=float(data["rate"]),
            model=data["model"],
            workload=data["workload"],
            run_class=RunClass(data["run_class"]),
            chip_seed=int(data.get("chip_seed", 0)),
            detail=data.get("detail", ""),
            outcome=data.get("outcome"),
            recoveries=int(data.get("recoveries", 0)),
            faults_injected=int(data.get("faults_injected", 0)),
            instructions=int(data.get("instructions", 0)),
            quarantined=list(data.get("quarantined") or []),
            escalations=dict(data.get("escalations") or {}),
            wall_ns=float(data.get("wall_ns", 0.0)),
            mean_voltage=float(data.get("mean_voltage", 0.0)),
            wake_rates=list(data.get("wake_rates") or []),
            duration_s=float(data.get("duration_s", 0.0)),
            fairness=data.get("fairness"),
            traceback=data.get("traceback"),
            metrics=data.get("metrics"),
            trace=data.get("trace"),
        )


@dataclass
class CampaignReport:
    """Aggregated, JSON-serialisable campaign outcome."""

    spec: Dict[str, Any]
    records: List[RunRecord]
    wall_s: float = 0.0

    @property
    def counts(self) -> Dict[str, int]:
        counts = {cls.value: 0 for cls in RunClass}
        for record in self.records:
            counts[record.run_class.value] += 1
        return counts

    @property
    def quarantine_event_count(self) -> int:
        return sum(len(record.quarantined) for record in self.records)

    @property
    def voltage_escalation_recoveries(self) -> int:
        """Runs that completed *after* the guard stepped the voltage up."""
        return sum(
            1
            for record in self.records
            if record.outcome == "completed" and record.voltage_escalations > 0
        )

    @property
    def crash_tracebacks(self) -> List[str]:
        return [r.traceback for r in self.records if r.traceback]

    def merged_metrics(self) -> Dict[str, Any]:
        """One metrics report aggregating every traced run.

        Untraced runs (and crashed workers, which shipped nothing) are
        counted in the report's ``skipped_runs``.
        """
        from ..telemetry import merge_metrics

        return merge_metrics([record.metrics for record in self.records])

    def merged_trace(self) -> Dict[str, Any]:
        """One Perfetto-loadable artifact: each traced run as a process."""
        from ..telemetry import events_from_dicts, merge_traces

        runs = [
            (
                f"run-{record.run_id} seed={record.seed} {record.model}",
                events_from_dicts(record.trace),
            )
            for record in self.records
            if record.trace
        ]
        return merge_traces(runs)

    def write_metrics_json(self, path: str) -> None:
        atomic_write_json(path, self.merged_metrics())

    def write_perfetto(self, path: str) -> None:
        atomic_write_json(path, self.merged_trace(), indent=None)

    def to_dict(self, canonical: bool = False) -> Dict[str, Any]:
        """The JSON report; ``canonical=True`` drops wall-clock fields.

        The canonical form is a pure function of the campaign's content:
        execution-only spec fields (worker width, watchdog deadline) and
        wall-clock timings are excluded, so an interrupted-and-resumed
        campaign serialises byte-identically to an uninterrupted one.
        """
        spec = self.spec
        if canonical:
            from ..store.runkey import EXECUTION_ONLY_SPEC_FIELDS

            spec = {
                key: value
                for key, value in self.spec.items()
                if key not in EXECUTION_ONLY_SPEC_FIELDS
            }
        data = {
            "spec": spec,
            "counts": self.counts,
            "quarantine_events": self.quarantine_event_count,
            "voltage_escalation_recoveries": self.voltage_escalation_recoveries,
            "records": [record.to_dict(canonical) for record in self.records],
        }
        if not canonical:
            data["wall_s"] = self.wall_s
        return data

    def write_json(self, path: str, canonical: bool = False) -> None:
        atomic_write_json(path, self.to_dict(canonical))

    def summary_table(self) -> str:
        counts = self.counts
        total = len(self.records) or 1
        lines = [
            f"campaign: {total if self.records else 0} runs in {self.wall_s:.1f} s "
            f"({self.spec.get('workload', '?')}, rates {self.spec.get('rates')})",
            f"  {'class':<20s} {'runs':>6s} {'share':>7s}",
        ]
        for cls in RunClass:
            count = counts[cls.value]
            lines.append(
                f"  {cls.value:<20s} {count:>6d} {100.0 * count / total:>6.1f}%"
            )
        lines.append(f"  quarantine events: {self.quarantine_event_count}")
        lines.append(
            f"  voltage-escalation recoveries: {self.voltage_escalation_recoveries}"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------- worker side --


def _initial_voltage(payload: Dict[str, Any]) -> float:
    """Supply voltage an ``sram`` run starts at.

    An explicit ``voltage`` in the payload wins.  Otherwise, with DVS
    on, the run starts where the controller warm-starts (safe point
    minus the initial margin) and follows every subsequent voltage move
    through the engine's re-thresholding hook; with DVS off the
    operating point is derived from the run's rate through the
    voltage→rate curve, so geometric and sram runs sweep one shared
    axis.
    """
    from ..config import table1_config
    from ..faults.voltage_model import VoltageErrorModel

    if payload.get("voltage") is not None:
        return float(payload["voltage"])
    safe = table1_config().dvfs.safe_voltage
    if payload["dvs"]:
        return float(safe) - float(payload["initial_margin"])
    rate = float(payload["rate"])
    if rate <= 0.0:
        return float(safe)
    return VoltageErrorModel.itanium_9560().voltage_for_rate(min(rate, 0.5))


def _build_injector(payload: Dict[str, Any], checker_count: int):
    """Compose the run's fault models from its mix name."""
    import numpy as np

    from ..faults.injector import FaultInjector, default_injector
    from ..faults.models import (
        BurstFaultModel,
        RegisterFaultModel,
        StuckAtFaultModel,
    )
    from ..isa import FunctionalUnit

    seed = int(payload["seed"])
    rate = float(payload["rate"])
    model = payload["model"]
    if model == "transient":
        return default_injector(rate, seed=seed, target="checker")
    if model in ("sram", "sram-uniform"):
        from ..faults.sram import sram_injector

        # The map belongs to the *chip*, not the run: every seed on the
        # same chip replays against the identical bit-cell map, which
        # is what makes the faults persistent and address-correlated.
        return sram_injector(
            int(payload.get("chip_seed", 0)),
            checkers=checker_count,
            mode="uniform" if model == "sram-uniform" else "mors",
            voltage=_initial_voltage(payload),
            target="checker",
        )
    rng = np.random.default_rng(seed + 0x5EED)
    if model == "burst":
        # Longer, denser bursts than the model's defaults so a burst can
        # stall one checkpoint across several retries — the scenario the
        # guard's voltage stage exists for.
        return FaultInjector(
            [
                RegisterFaultModel(rate, rng),
                BurstFaultModel(rate, rng, burst_rate=0.08, mean_burst_ops=600.0),
            ],
            target="checker",
        )
    if model in ("stuckat", "stuckat-global"):
        bound = seed % checker_count if model == "stuckat" else None
        return FaultInjector(
            [
                RegisterFaultModel(rate, rng),
                StuckAtFaultModel(
                    rng,
                    unit=FunctionalUnit.INT_ALU,
                    bit=int(rng.integers(48)),
                    bound_checker_id=bound,
                ),
            ],
            target="checker",
        )
    raise ValueError(f"unknown fault-model mix {model!r}")


def execute_run(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Simulate one campaign run in-process and return a result dict.

    ``main_cores`` main cores (the payload's, else one) run the
    campaign's workload.  One main is the paper's system: a private pool
    whose anti-ageing boot offset the engine draws from the payload
    seed.  With several, every main gets a derived-seed injector, all
    share one checker pool under the payload's ``pool_policy``, the
    run's outcome is the *worst* across mains (one SDC anywhere is an
    SDC for the run), and the result carries the pool's fairness
    summary.

    Exposed for tests; :func:`run_campaign` always calls it inside a
    worker process so a crash here cannot take the campaign down.
    """
    hook = payload.get("hook")
    if hook == "crash":  # test hook: die without a Python traceback
        os._exit(17)
    if hook == "hang":  # test hook: trip the parent's watchdog
        time.sleep(3600)
    if hook == "error":  # test hook: unhandled worker exception
        raise RuntimeError("campaign error hook")

    from dataclasses import replace

    import numpy as np

    from ..cli import resolve_workload
    from ..config import table1_config
    from ..core.engine import EngineOptions, SimulationEngine
    from ..core.multicore import fairness_trace_events, run_engines
    from ..lslog.segment import RollbackGranularity
    from ..parallel import derive_seed
    from ..scheduling import POOL_POLICIES, CheckerPool, SchedulingPolicy
    from ..stats import RunOutcome
    from ..stats.fairness import FairnessReport
    from ..workloads import golden_run

    started = time.perf_counter()
    workload = resolve_workload(payload["workload"], payload["scale"])
    golden = golden_run(workload)

    config = table1_config()
    resilience_config = ResilienceConfig()
    overrides = payload.get("overrides")
    if overrides:
        config, resilience_config = apply_config_overrides(
            config, resilience_config, overrides
        )
    if payload["dvs"]:
        # Warm-start below the safe voltage: campaigns probe the
        # error-intensive region the production controller converges to.
        config = replace(
            config,
            dvfs=replace(
                config.dvfs, initial_difference=float(payload["initial_margin"])
            ),
        )

    mains = int(payload.get("main_cores", 1))
    base_seed = int(payload["seed"])
    tracing = bool(payload.get("tracing", False))
    seeds = [base_seed]
    pool = policy = None
    if mains > 1:
        policy = POOL_POLICIES[payload.get("pool_policy") or "steal"]
        size = config.checker.count
        boot_rng = np.random.default_rng(derive_seed(base_seed, "mc-boot"))
        pool = CheckerPool(
            size,
            boot_offset=int(boot_rng.integers(size)),
            main_count=mains,
            policy=policy,
        )
        seeds = [derive_seed(base_seed, "mc", main_id) for main_id in range(mains)]

    engines: List[SimulationEngine] = []
    for main_id, seed in enumerate(seeds):
        injector = _build_injector({**payload, "seed": seed}, config.checker.count)
        options = EngineOptions(
            granularity=RollbackGranularity.LINE,
            scheduling=SchedulingPolicy.LOWEST_FREE_ID,
            adaptive_checkpoints=True,
            dvs=bool(payload["dvs"]),
            # No voltage->rate model: the campaign pins the requested rate
            # so runs are comparable across the rate grid.
            voltage_model=None,
            tracing=tracing,
            resilience=resilience_config,
        )
        engine = SimulationEngine(
            workload.program,
            config,
            options,
            injector=injector,
            memory=workload.create_memory(),
            system_name="paradox-resilient",
            rng=np.random.default_rng(seed),
            pool=pool,
            main_id=main_id,
        )
        # Lowest-free-ID scheduling starts at the head of the main's
        # candidate order (the randomised boot offset with one main), so
        # rebind core-bound defects to the core that actually replays
        # segments — a defect on a never-selected checker would be
        # vacuously benign and test nothing.
        for model in injector.models:
            if model.bound_checker_id is not None:
                model.bound_checker_id = engine.pool.candidates[main_id][0]
        engines.append(engine)

    results = run_engines(engines, [workload.max_instructions] * mains)

    stages: Dict[str, int] = {}
    quarantined: List[int] = []
    for result in results:
        for event in result.escalations:
            stages[event.stage] = stages.get(event.stage, 0) + 1
        quarantined.extend(event.core_id for event in result.quarantine_events)
    severity = {"completed": 0, "livelock": 1, "forward_progress_failure": 2}
    worst = max(results, key=lambda r: severity.get(r.outcome.value, 3))
    failure = next((r.failure for r in results if r.failure is not None), None)
    matches = all(
        result.outcome is RunOutcome.COMPLETED
        and engine.memory == golden.memory
        and result.program_output == golden.output
        for engine, result in zip(engines, results)
    )
    wall_ns = max(result.wall_ns for result in results)
    pool = engines[0].pool  # the engine's private pool with one main
    message = {
        "status": "ok",
        "outcome": worst.outcome.value,
        "matches_golden": bool(matches),
        "recoveries": sum(len(result.recoveries) for result in results),
        "faults_injected": sum(result.faults_injected for result in results),
        "instructions": sum(result.instructions for result in results),
        # Event order for one main; the set of checkers across several.
        "quarantined": quarantined if mains == 1 else sorted(set(quarantined)),
        "escalations": stages,
        # Deterministic fitness inputs for the explore layer: simulated
        # wall time, time-weighted supply voltage (unweighted mean across
        # mains, each already time-weighted over its own run) and the
        # per-checker wake rates of the whole pool.
        "wall_ns": float(wall_ns),
        "mean_voltage": float(
            sum(result.mean_voltage for result in results) / len(results)
        ),
        "wake_rates": [float(rate) for rate in pool.wake_rates(wall_ns)],
        "failure": failure.summary() if failure is not None else None,
        "metrics": results[0].metrics,
        "trace": results[0].trace,
    }
    if mains > 1:
        fairness = FairnessReport.from_pool(pool, wall_ns)
        message["fairness"] = fairness.to_dict()
        if tracing:
            from ..telemetry import merge_metrics

            message["metrics"] = merge_metrics([result.metrics for result in results])
            message["trace"] = fairness_trace_events(
                results, fairness, wall_ns, seed=base_seed, policy=policy
            )
    message["duration_s"] = time.perf_counter() - started
    return message


# ---------------------------------------------------------------- parent side --


def classify_result(message: Dict[str, Any]) -> Tuple[RunClass, str]:
    """Map a successful worker result onto the six-outcome taxonomy."""
    outcome = message["outcome"]
    if outcome == "livelock":
        return RunClass.HANG, "livelock budget exhausted"
    if outcome == "forward_progress_failure":
        return RunClass.HANG, message.get("failure") or "forward-progress failure"
    if not message["matches_golden"]:
        return RunClass.SDC, "final state diverged from the golden run"
    if message["quarantined"] or message["escalations"]:
        parts = []
        if message["quarantined"]:
            cores = ", ".join(str(c) for c in message["quarantined"])
            parts.append(f"quarantined checker(s) {cores}")
        if message["escalations"]:
            stages = ", ".join(
                f"{stage} x{count}" for stage, count in message["escalations"].items()
            )
            parts.append(f"guard escalations: {stages}")
        return RunClass.DEGRADED, "; ".join(parts)
    if message["recoveries"]:
        return RunClass.DETECTED_RECOVERED, (
            f"{message['recoveries']} detection(s), all rolled back"
        )
    return RunClass.MASKED, (
        f"{message['faults_injected']} fault(s) injected, none architecturally visible"
    )


def _base_record(payload: Dict[str, Any]) -> RunRecord:
    return RunRecord(
        run_id=payload["run_id"],
        seed=payload["seed"],
        rate=payload["rate"],
        model=payload["model"],
        workload=payload["workload"],
        run_class=RunClass.CRASH,
        chip_seed=int(payload.get("chip_seed", 0)),
    )


def _record_from_message(
    payload: Dict[str, Any], message: Optional[Dict[str, Any]]
) -> RunRecord:
    record = _base_record(payload)
    if message is None:
        record.detail = "worker closed the pipe without a result"
        return record
    if message.get("status") != "ok":
        record.detail = "unhandled exception in worker"
        record.traceback = message.get("traceback")
        return record
    record.run_class, record.detail = classify_result(message)
    record.outcome = message["outcome"]
    record.recoveries = message["recoveries"]
    record.faults_injected = message["faults_injected"]
    record.instructions = message["instructions"]
    record.quarantined = list(message["quarantined"])
    record.escalations = dict(message["escalations"])
    record.wall_ns = float(message.get("wall_ns", 0.0))
    record.mean_voltage = float(message.get("mean_voltage", 0.0))
    record.wake_rates = list(message.get("wake_rates") or [])
    record.duration_s = message["duration_s"]
    record.fairness = message.get("fairness")
    record.metrics = message.get("metrics")
    record.trace = message.get("trace")
    return record


def _record_from_outcome(
    spec: CampaignSpec, payload: Dict[str, Any], outcome: FanoutOutcome
) -> RunRecord:
    """Classify one fan-out outcome (any status) into a RunRecord."""
    if outcome.status == "ok":
        return _record_from_message(payload, outcome.value)
    record = _base_record(payload)
    if outcome.status == "error":
        record.detail = "unhandled exception in worker"
        record.traceback = outcome.traceback
    elif outcome.status == "died":
        record.detail = f"worker died with exit code {outcome.exitcode}"
    else:  # timeout: the fan-out's watchdog terminated the worker
        record.run_class = RunClass.HANG
        record.detail = f"watchdog timeout after {spec.timeout_s:.0f} s"
    return record


def run_campaign(
    spec: CampaignSpec,
    progress: Optional[Callable[[RunRecord], None]] = None,
    *,
    store_path: Optional[str] = None,
    resume: bool = False,
    shard: Optional[Tuple[int, int]] = None,
    on_cached: Optional[Callable[[RunRecord], None]] = None,
    on_start: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> CampaignReport:
    """Execute every run of ``spec`` with per-run crash isolation.

    Never raises on account of a run: worker deaths become ``crash``
    records, deadline overruns become ``hang`` records.  ``progress`` is
    invoked with each :class:`RunRecord` as it is classified.

    With ``store_path``, the campaign registers its full grid in a
    :class:`repro.store.CampaignStore` up front and commits each record
    the moment it is classified (one transaction per run), so a campaign
    killed at any instant leaves only complete records behind.  With
    ``resume=True`` cells already recorded in the store are loaded
    instead of re-executed (``on_cached``, or ``progress`` if unset, is
    invoked for each).  ``shard=(k, n)`` (1-based ``k``) restricts
    execution to the cells whose run-key hashes into shard ``k`` of
    ``n``; the full grid stays registered so coverage queries see the
    whole campaign and shard stores merge cleanly.
    """
    from ..store import CampaignStore, StoreError
    from ..store import campaign_key as spec_campaign_key
    from ..store import run_key as cell_run_key
    from ..store import shard_of

    started = time.perf_counter()
    payloads = spec.expand()
    keys = [cell_run_key(payload) for payload in payloads]
    selected = list(range(len(payloads)))
    if shard is not None:
        k, n = shard
        selected = [i for i in selected if shard_of(keys[i], n) == k - 1]
    records: List[Optional[RunRecord]] = [None] * len(payloads)

    store: Optional[CampaignStore] = None
    campaign_key: Optional[str] = None
    try:
        if store_path is not None:
            store = CampaignStore(store_path)
            campaign_key = spec_campaign_key(spec.to_dict())
            store.register_campaign(
                campaign_key,
                spec.to_dict(),
                [(keys[i], i, payloads[i]) for i in range(len(payloads))],
            )
            done = store.completed_keys(campaign_key)
            if done and not resume:
                raise StoreError(
                    f"store {store_path!r} already holds {len(done)} record(s) "
                    "for this campaign; pass resume=True (--resume) to skip "
                    "completed cells, or use a fresh store"
                )
            notify_cached = on_cached if on_cached is not None else progress
            for i in selected:
                if keys[i] in done:
                    record_dict = store.load_record(keys[i])
                    if record_dict is not None:
                        records[i] = RunRecord.from_dict(record_dict)
                        if notify_cached is not None:
                            notify_cached(records[i])

        pending = [i for i in selected if records[i] is None]

        def handle_outcome(outcome: FanoutOutcome) -> None:
            index = pending[outcome.index]
            payload = payloads[index]
            record = _record_from_outcome(spec, payload, outcome)
            records[index] = record
            if store is not None:
                store.record_run(
                    campaign_key,
                    keys[index],
                    record.to_dict(),
                    metrics=record.metrics,
                    trace=record.trace,
                    voltage=payload.get("voltage"),
                )
            if progress is not None:
                progress(record)

        handle_start = None
        if on_start is not None:
            handle_start = lambda index: on_start(payloads[pending[index]])

        run_fanout(
            execute_run,
            [payloads[i] for i in pending],
            jobs=spec.resolved_workers(),
            timeout_s=spec.timeout_s,
            on_outcome=handle_outcome,
            on_start=handle_start,
        )
    finally:
        if store is not None:
            store.close()
    final = [record for record in records if record is not None]
    return CampaignReport(
        spec=spec.to_dict(), records=final, wall_s=time.perf_counter() - started
    )
