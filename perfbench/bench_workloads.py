"""The three benchmark workloads, driven through the simulator's public API.

Each workload is a closed loop of *rounds*; a round is a fixed list of
operations (one simulation, or one campaign cell) whose content is a
pure function of the benchmark seed and the round index.  Every piece
of measured work is followed by reference slices (:mod:`refloop`), so
the run's seconds can be normalized to the nominal host speed.  See
README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from refloop import parallel_slices, reference_slice, speed

#: Seed whose simulated results are pinned in :data:`PINNED_DIGESTS`.
DEFAULT_SEED = 1

#: Digest of round 0 of each workload at DEFAULT_SEED (see :func:`run_item`
#: and ``CampaignWorkload.round``).  A perf or simplicity change must
#: leave these unchanged.
PINNED_DIGESTS = {
    "suite": "a3510649f5d55e2d",
    "undervolt": "dbe0066904b33d23",
    "campaign": "ceddc3527f25d84a",
}


class Meter:
    """Times pieces of work, each followed by reference slices.

    A piece's normalized seconds are its raw seconds times the host
    speed read by the slices right after it, run with the work's own
    parallelism (``processes``).
    """

    def __init__(self, slices_after: int = 1, processes: int = 1) -> None:
        self.slices_after = slices_after
        self.processes = processes
        self.raw_s = 0.0
        self.norm_s = 0.0
        self.slices: List[float] = []

    def __call__(self, fn: Callable[..., Any], *args, **kwargs) -> Tuple[Any, float, float]:
        """Run ``fn``; return its value, host seconds and host speed."""
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        raw = time.perf_counter() - start
        if self.processes > 1:
            slices = parallel_slices(self.processes, self.slices_after)
        else:
            slices = [reference_slice() for _ in range(self.slices_after)]
        host = speed(slices)
        self.slices += slices
        self.raw_s += raw
        self.norm_s += raw * host
        return value, raw, host


@dataclass
class Op:
    """One operation: a simulation or a campaign cell."""

    raw_s: float
    #: Host speed read right after the work this operation belongs to.
    speed: float
    #: Useful (committed) simulated instructions.
    instructions: int

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.speed


@dataclass
class Round:
    """One round's operations, measured work and simulated digest."""

    ops: List[Op]
    #: Raw and normalized seconds of the round's work: its simulations,
    #: or its campaigns' wall time.
    raw_s: float
    norm_s: float
    #: Every reference slice timed after the round's pieces of work.
    slices: List[float]
    digest: str
    attempted: int
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Campaign only: (parent-observed latency, RunRecord.duration_s),
    #: and each campaign's own digest.
    cells: List[Tuple[float, float]] = field(default_factory=list)
    parts: List[str] = field(default_factory=list)


def digest(items: Any) -> str:
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def run_item(label: str, result) -> List[Any]:
    """The simulated numbers of one run that a digest covers."""
    return [
        label,
        repr(float(result.wall_ns)),
        int(result.instructions),
        int(result.instructions_executed),
        int(result.segments),
        len(result.recoveries),
        result.outcome.value,
    ]


def matches_golden(result, engine, golden) -> bool:
    """A completed run must end in the golden output and memory."""
    from repro.stats import RunOutcome

    if result.outcome is not RunOutcome.COMPLETED:
        return True
    return engine.memory == golden.memory and result.program_output == golden.output


class SimulationWorkload:
    """Shared machinery of ``suite`` and ``undervolt``: in-process runs.

    A round is a list of ``(label, simulate)`` operations; ``simulate``
    returns ``(engine, result, workload)`` for every main core it ran.
    """

    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        #: id(program) -> (workload, golden run); holding the workload
        #: keeps the id from being reused.
        self._golden: Dict[int, Any] = {}

    def golden(self, workload):
        """The workload's golden run (computed once, outside any timer)."""
        from repro.workloads import golden_run

        key = id(workload.program)
        if key not in self._golden:
            self._golden[key] = (workload, golden_run(workload))
        return self._golden[key][1]

    def setup(self) -> Tuple[float, float]:
        """Build the programs and run the first (cold) round on them.

        Returns raw and normalized seconds."""
        meter = Meter()
        self.build(meter)
        self.cold_round = self.round(0)
        return (
            meter.raw_s + self.cold_round.raw_s,
            meter.norm_s + self.cold_round.norm_s,
        )

    def repeat(self, first: Round) -> str:
        """Digest of round 0's content run again: the cold set-up round."""
        return self.cold_round.digest

    def build(self, meter: Meter) -> None:
        """Build the programs the rounds reuse (suite: inside the rounds)."""

    def renormalize(self, rounds: List[Round]) -> None:
        """Simulations keep the speed read right after each of them."""

    def operations(self, index: int) -> List[Tuple[str, Callable[[], list]]]:
        raise NotImplementedError

    def round(self, index: int) -> Round:
        meter = Meter()
        ops: List[Op] = []
        items: List[Any] = []
        errors: List[str] = []
        grid = self.operations(index)
        for label, simulate in grid:
            try:
                runs, raw, host = meter(simulate)
            except Exception as exc:  # one failed operation; the loop goes on
                errors.append(f"{label}: {exc!r}")
                continue
            for engine, result, workload in runs:
                if not matches_golden(result, engine, self.golden(workload)):
                    errors.append(f"{label}: {result.workload} differs from golden_run")
                items.append(run_item(f"{label}/{result.workload}", result))
            ops.append(Op(raw, host, sum(result.instructions for _, result, _ in runs)))
        return Round(
            ops,
            meter.raw_s,
            meter.norm_s,
            meter.slices,
            digest(items),
            len(grid),
            len(errors),
            errors,
        )


class SuiteWorkload(SimulationWorkload):
    """Figures 10/12/13's suite: five proxies on all four systems."""

    name = "suite"
    #: One proxy per DESIGN.md class: compute, memory, code footprint,
    #: checkpoint-bound, rollback-buffer-bound.
    PROXIES = ("bzip2", "lbm", "gobmk", "milc", "astar")
    #: The figure benchmarks' program size.
    ITERATIONS = 20

    #: The figure harnesses' default seed: the suite's programs are the
    #: figures' own, and what varies with the benchmark seed is each
    #: round's run seed (fault draws, checker boot offset).
    BUILD_SEED = 12345

    def __init__(self, seed: int, workdir: str) -> None:
        from repro.core.systems import System
        from repro.workloads import build_spec_workload

        super().__init__(seed, workdir)
        # For the golden runs only, outside every timer: equal copies of
        # the programs the suite tasks build (and compile) themselves.
        self.programs = {
            name: build_spec_workload(name, self.ITERATIONS, self.BUILD_SEED)
            for name in self.PROXIES
        }
        # A suite task builds its engine inside the API; keep the last
        # one built for the final-memory check.
        original = System.engine

        def engine(system, *args, **kwargs):
            self.last_engine = original(system, *args, **kwargs)
            return self.last_engine

        System.engine = engine

    def operations(self, index: int):
        from dataclasses import replace

        from repro.experiments.spec_runs import (
            SUITE_SYSTEMS,
            build_suite_tasks,
            execute_suite_task,
        )
        from repro.parallel import derive_seed

        run_seed = derive_seed(self.seed, "suite", index)
        tasks = build_suite_tasks(
            self.PROXIES, SUITE_SYSTEMS, self.ITERATIONS, self.BUILD_SEED
        )

        def cell(task):
            def simulate():
                result = execute_suite_task(task)
                return [(self.last_engine, result, self.programs[task.workload])]

            return simulate

        return [
            (task.system, cell(replace(task, run_seed=run_seed))) for task in tasks
        ]


class UndervoltWorkload(SimulationWorkload):
    """Figure 8's error-seeking regime plus a shared checker pool."""

    name = "undervolt"
    PARADOX_RATES = (1e-4, 1e-3, 5e-3)
    #: ParaMedic livelocks above ~2e-4 (figure 8), so it runs at 1e-4 only.
    PARAMEDIC_RATE = 1e-4
    MULTICORE_RATE = 1e-3
    MULTICORE_POOL = 4
    BITCOUNT_VALUES = 10
    SJENG_ITERATIONS = 3

    def build(self, meter: Meter) -> None:
        # The builders' default data: what varies with the seed here is
        # the fault draws, which every round takes afresh.  Seeding the
        # programs too would make one seed's throughput differ from
        # another's by the programs' shape, not by the fault schedule.
        from repro.workloads import build_bitcount, build_spec_workload

        def both():
            return [
                build_bitcount(values=self.BITCOUNT_VALUES),
                build_spec_workload("sjeng", iterations=self.SJENG_ITERATIONS),
            ]

        self.programs, _, _ = meter(both)

    def operations(self, index: int):
        from repro.config import table1_config
        from repro.core import CoreSpec, MulticoreEngine, ParaDoxSystem, ParaMedicSystem
        from repro.parallel import derive_seed
        from repro.scheduling import PoolPolicy

        run_seed = derive_seed(self.seed, "undervolt", index)

        def config(rate):
            return table1_config().with_error_rate(rate, seed=run_seed)

        def single(system, workload):
            def simulate():
                engine = system.engine(workload, seed=run_seed)
                return [(engine, engine.run(workload.max_instructions), workload)]

            return simulate

        def shared():
            harness = MulticoreEngine(
                [CoreSpec(workload=workload) for workload in self.programs],
                policy=PoolPolicy.WORK_STEALING,
                pool_size=self.MULTICORE_POOL,
                seed=run_seed,
                default_system=ParaDoxSystem(
                    config=config(self.MULTICORE_RATE), resilient=True
                ),
            )
            results = harness.run().results
            return list(zip(harness.engines, results, self.programs))

        grid = []
        for workload in self.programs:
            for rate in self.PARADOX_RATES:
                system = ParaDoxSystem(config=config(rate), resilient=True)
                grid.append((f"paradox/{rate:g}", single(system, workload)))
            system = ParaMedicSystem(config=config(self.PARAMEDIC_RATE))
            grid.append((f"paramedic/{self.PARAMEDIC_RATE:g}", single(system, workload)))
        grid.append(("shared", shared))
        return grid


class CampaignWorkload:
    """Explore-shaped, store-backed fault-injection campaigns."""

    name = "campaign"
    #: Reference slices per worker process after each campaign: the
    #: parent must not compete with its workers, so the host is sampled
    #: between campaigns, with the campaign's parallelism.
    SLICES_AFTER = 3
    #: A campaign's speed swings within its own second or two, so a
    #: round is normalized by the median of at least this many slices
    #: around it (see :meth:`renormalize`), not by its own alone.
    WINDOW_SLICES = 36
    #: Explore's default scale for the bitcount grid.
    BITCOUNT_SCALE = 0.3
    #: Seeds per bitcount campaign: with two rates, 8 cells and 2 of the
    #: long burst cells, so both workers carry one.
    BITCOUNT_SEEDS = 4
    GCC_SCALE = 0.1
    GCC_SEEDS = 4
    TIMEOUT_S = 60.0

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.workers = len(os.sched_getaffinity(0))
        self.stores = 0
        self.store_path = ""

    def setup(self) -> Tuple[float, float]:
        """Create a fresh store for the campaigns to append to.

        Returns raw and normalized seconds."""
        from repro.store import CampaignStore

        self.stores += 1
        self.store_path = os.path.join(self.workdir, f"store-{self.stores}.sqlite")
        meter = Meter(self.SLICES_AFTER)
        meter(lambda: CampaignStore(self.store_path).close())
        return meter.raw_s, meter.norm_s

    def specs(self, index: int):
        from repro.parallel import derive_seed
        from repro.resilience.campaign import CampaignSpec

        first = derive_seed(self.seed, "campaign", index) % 1_000_000
        common = dict(dvs=True, workers=self.workers, timeout_s=self.TIMEOUT_S)
        return [
            CampaignSpec(
                workload="bitcount",
                scale=self.BITCOUNT_SCALE,
                seeds=self.BITCOUNT_SEEDS,
                first_seed=first,
                rates=(1e-4, 3e-4),
                models=("transient", "burst", "stuckat", "sram"),
                **common,
            ),
            CampaignSpec(
                workload="gcc",
                scale=self.GCC_SCALE,
                seeds=self.GCC_SEEDS,
                first_seed=first,
                rates=(1e-4,),
                models=("transient",),
                **common,
            ),
        ]

    def round(self, index: int, specs=None) -> Round:
        from repro.resilience.campaign import RunClass, run_campaign

        meter = Meter(self.SLICES_AFTER, processes=self.workers)
        ops: List[Op] = []
        cells: List[Tuple[float, float]] = []
        errors: List[str] = []
        reports = []
        for spec in self.specs(index) if specs is None else specs:
            started: Dict[int, float] = {}
            finished: List[Tuple[float, Any]] = []

            def on_start(payload, started=started):
                started[payload["run_id"]] = time.perf_counter()

            def progress(record, started=started, finished=finished):
                finished.append((time.perf_counter() - started[record.run_id], record))

            report, _, host = meter(
                run_campaign, spec, progress, store_path=self.store_path, on_start=on_start
            )
            reports.append(report.to_dict(canonical=True))
            for latency, record in finished:
                ops.append(Op(latency, host, record.instructions))
                cells.append((latency, record.duration_s))
                if record.run_class in (RunClass.CRASH, RunClass.SDC) or (
                    record.run_class is RunClass.HANG and "watchdog" in record.detail
                ):
                    errors.append(
                        f"{spec.workload} cell {record.run_id}: "
                        f"{record.run_class.value} ({record.detail})"
                    )
        return Round(
            ops,
            meter.raw_s,
            meter.norm_s,
            meter.slices,
            digest(reports),
            len(ops),
            len(errors),
            errors,
            cells,
            [digest(report) for report in reports],
        )

    def repeat(self, first: Round) -> str:
        """Round 0's digest if its gcc campaign, the cheaper of its two,
        run again into a second fresh store, gives the same report."""
        self.setup()
        gcc = self.specs(0)[1]
        again = self.round(0, specs=[gcc]).parts[0]
        return first.digest if again == first.parts[1] else f"gcc campaign {again}"

    def renormalize(self, rounds: List[Round]) -> None:
        """Normalize each round by the slices of a window of rounds."""
        speeds = []
        for index in range(len(rounds)):
            low = high = index
            slices = list(rounds[index].slices)
            while len(slices) < self.WINDOW_SLICES and (
                low > 0 or high < len(rounds) - 1
            ):
                if low > 0:
                    low -= 1
                    slices += rounds[low].slices
                if high < len(rounds) - 1:
                    high += 1
                    slices += rounds[high].slices
            speeds.append(speed(slices))
        for current, host in zip(rounds, speeds):
            current.norm_s = current.raw_s * host
            for op in current.ops:
                op.speed = host


WORKLOADS = {
    "suite": SuiteWorkload,
    "undervolt": UndervoltWorkload,
    "campaign": CampaignWorkload,
}
