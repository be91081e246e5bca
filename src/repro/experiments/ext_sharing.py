"""Extension: shared checker pools (figure 12's halving suggestion).

The paper closes figure 12's analysis with: the checker-core area "could
be reduced by half through sharing checker cores between multiple main
cores, without affecting performance".  This harness tests the claim by
co-simulation: two ParaDox main cores run a demanding pairing on one
shared pool of decreasing size under work stealing, and each core's wall
time is compared with its run on a private pool (the paper's sixteen
checkers).  A main core slows down only when it has to wait for a
checker another core occupies, which the checker-wait column shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core import ParaDoxSystem, run_multicore
from ..parallel import derive_seed
from ..scheduling import PoolPolicy
from ..workloads import build_spec_workload
from .common import format_table

#: A demanding pairing: gobmk peaks wide; lbm is store-heavy.
DEFAULT_PAIR: Sequence[str] = ("gobmk", "lbm")

#: "Without affecting performance": no main core slower than this.
SLOWDOWN_BOUND = 1.01


@dataclass
class CoreRow:
    """One main core on one shared pool size."""

    pool_size: int
    main_id: int
    workload: str
    #: Wall time on the shared pool over wall time on a private pool.
    slowdown: float
    checker_wait_ns: float
    #: This core's checks in units of always-awake checkers.
    cores_awake: float


@dataclass
class SharingResult:
    workloads: List[str]
    rows: List[CoreRow]

    @property
    def pool_sizes(self) -> List[int]:
        return sorted({row.pool_size for row in self.rows})

    def max_slowdown(self, pool_size: int) -> float:
        return max(row.slowdown for row in self.rows if row.pool_size == pool_size)

    def total_wait_ns(self, pool_size: int) -> float:
        return sum(
            row.checker_wait_ns for row in self.rows if row.pool_size == pool_size
        )

    @property
    def minimum_pool(self) -> Optional[int]:
        """Smallest swept pool on which no main core slows by over 1%."""
        adequate = [
            size
            for size in self.pool_sizes
            if self.max_slowdown(size) <= SLOWDOWN_BOUND
        ]
        return min(adequate) if adequate else None

    def table(self) -> str:
        rows = [
            (
                row.pool_size,
                f"main{row.main_id}",
                row.workload,
                f"{row.slowdown:.4f}",
                f"{row.checker_wait_ns:.0f}",
                f"{row.cores_awake:.2f}",
            )
            for row in sorted(self.rows, key=lambda r: (-r.pool_size, r.main_id))
        ]
        table = format_table(
            ["pool", "main", "workload", "slowdown", "checker wait ns", "cores awake"],
            rows,
            title=(
                f"Figure 12 extension: {' + '.join(self.workloads)} "
                "sharing one pool (steal)"
            ),
        )
        return table + (
            f"\n\nminimum adequate pool (no core >1% slower): {self.minimum_pool}"
        )


def run(
    names: Sequence[str] = DEFAULT_PAIR,
    iterations: int = 12,
    seed: int = 12345,
    pool_sizes: Sequence[int] = (32, 16, 12, 8, 6, 4),
) -> SharingResult:
    system = ParaDoxSystem()
    workloads = [
        build_spec_workload(name, iterations=iterations, seed=seed) for name in names
    ]
    # Each core's private-pool run uses the seed it gets as main core i.
    private_ns = [
        system.run(workload, seed=derive_seed(seed, "mc", main_id)).wall_ns
        for main_id, workload in enumerate(workloads)
    ]
    rows: List[CoreRow] = []
    for size in pool_sizes:
        shared = run_multicore(
            workloads,
            system=system,
            policy=PoolPolicy.WORK_STEALING,
            pool_size=size,
            seed=seed,
        )
        for main_id, result in enumerate(shared.results):
            rows.append(
                CoreRow(
                    pool_size=size,
                    main_id=main_id,
                    workload=result.workload,
                    slowdown=result.wall_ns / private_ns[main_id],
                    checker_wait_ns=result.stalls.checker_wait_ns,
                    cores_awake=sum(result.checker_wake_rates),
                )
            )
    return SharingResult(workloads=list(names), rows=rows)


def main() -> None:
    print(run().table())


if __name__ == "__main__":
    main()
