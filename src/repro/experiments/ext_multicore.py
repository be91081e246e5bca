"""Extension: multi-main-core ParaDox with a live shared checker pool.

Where :mod:`ext_sharing` sweeps pool sizes under one policy to test
figure 12's halving claim, this harness compares the arbitration
policies, running M main cores **live** against one shared pool
(:mod:`repro.core.multicore`), so contention feeds back into each
core's timeline: a core that waits on a checker another core occupies
slows down, closes later checkpoints, and dispatches later.

Two scenario axes from the ROADMAP:

* **Multiprogrammed SPEC mix** — a demanding pairing (gobmk peaks wide,
  lbm is store-heavy) across all three arbitration policies and two
  pool sizes, reporting per-core slowdown versus a private-pool
  single-core run of the same workload, plus the fairness metrics.
* **Asymmetric per-core voltage** — core 0 runs undervolted with the
  DVS controller chasing the margin (and eating the resulting errors);
  core 1 runs at nominal, error-free.  The question is interference:
  how much of the undervolted core's recovery storm leaks into its
  well-behaved neighbour's timeline under each policy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence

from ..core import MulticoreResult, ParaDoxSystem, run_multicore
from ..core.multicore import CoreSpec, MulticoreEngine
from ..scheduling import PoolPolicy
from ..workloads import build_spec_workload
from .common import format_table

#: Same demanding pairing as the pool-size sweep.
DEFAULT_PAIR: Sequence[str] = ("gobmk", "lbm")


@dataclass
class MixRow:
    policy: str
    pool_size: int
    result: MulticoreResult
    #: Private-pool single-core wall times, same order as the mix.
    baselines: List[float]


@dataclass
class MulticoreStudy:
    workloads: List[str]
    mix_rows: List[MixRow]
    asym_rows: List[MixRow]

    def table(self) -> str:
        rows = []
        for entry in self.mix_rows:
            slowdowns = [
                r.wall_ns / base
                for r, base in zip(entry.result.results, entry.baselines)
            ]
            rows.append(
                (
                    entry.policy,
                    entry.pool_size,
                    " / ".join(f"{s:.3f}" for s in slowdowns),
                    " / ".join(
                        f"{r.stalls.checker_wait_ns:.0f}"
                        for r in entry.result.results
                    ),
                    " / ".join(
                        f"{s:.2f}" for s in entry.result.fairness.dispatch_share
                    ),
                    f"{entry.result.fairness.wait_gini:.3f}",
                )
            )
        mix = format_table(
            [
                "policy",
                "pool",
                "slowdown vs private",
                "checker-wait ns",
                "dispatch share",
                "wait gini",
            ],
            rows,
            title=(
                "Multiprogrammed mix on one shared pool: "
                f"{' + '.join(self.workloads)}"
            ),
        )
        rows = []
        for entry in self.asym_rows:
            slowdowns = [
                r.wall_ns / base
                for r, base in zip(entry.result.results, entry.baselines)
            ]
            rows.append(
                (
                    entry.policy,
                    entry.pool_size,
                    f"{slowdowns[0]:.3f}",
                    f"{slowdowns[1]:.3f}",
                    sum(len(r.recoveries) for r in entry.result.results),
                    f"{entry.result.fairness.wait_gini:.3f}",
                )
            )
        asym = format_table(
            [
                "policy",
                "pool",
                "undervolted slowdown",
                "nominal slowdown",
                "recoveries",
                "wait gini",
            ],
            rows,
            title=(
                "Asymmetric per-core voltage: undervolted DVS core 0 "
                "sharing the pool with a nominal core 1"
            ),
        )
        return mix + "\n\n" + asym


def run(
    names: Sequence[str] = DEFAULT_PAIR,
    iterations: int = 6,
    seed: int = 12345,
    pool_sizes: Sequence[int] = (16, 8),
    initial_margin: float = 0.12,
    error_rate: float = 1e-4,
) -> MulticoreStudy:
    workloads = [
        build_spec_workload(name, iterations=iterations, seed=seed) for name in names
    ]
    baselines = [
        ParaDoxSystem().run(workload, seed=seed).wall_ns for workload in workloads
    ]

    mix_rows: List[MixRow] = []
    for policy in PoolPolicy:
        for pool_size in pool_sizes:
            result = run_multicore(
                workloads,
                policy=policy,
                pool_size=pool_size,
                seed=seed,
            )
            mix_rows.append(MixRow(policy.value, pool_size, result, baselines))

    # Asymmetric voltage: core 0 undervolted behind the DVS controller
    # with injected errors, core 1 nominal and error-free.
    nominal = ParaDoxSystem().config
    undervolted_config = replace(
        nominal.with_error_rate(error_rate, seed=seed),
        dvfs=replace(nominal.dvfs, initial_difference=initial_margin),
    )
    asym_rows: List[MixRow] = []
    for policy in PoolPolicy:
        specs = [
            CoreSpec(
                workload=workloads[0],
                system=ParaDoxSystem(config=undervolted_config, dvs=True),
            ),
            CoreSpec(workload=workloads[1], system=ParaDoxSystem()),
        ]
        harness = MulticoreEngine(specs, policy=policy, seed=seed)
        asym_rows.append(MixRow(policy.value, len(harness.pool), harness.run(), baselines))

    return MulticoreStudy(
        workloads=list(names), mix_rows=mix_rows, asym_rows=asym_rows
    )


def main() -> None:
    print(run().table())


if __name__ == "__main__":
    main()
