"""Resilience demo: quarantine, typed forward-progress failure, campaign.

Three acts:

1. A checker core with a permanent stuck-at bit keeps raising false
   detections; the health tracker vindicates and quarantines it, and
   the run still completes bit-identical to the golden run.
2. The same defect in *every* checker (a global stuck-at) cannot be
   scheduled around: the forward-progress guard escalates and finally
   surfaces a typed ``forward_progress_failure`` naming the faulty
   unit — never a bare livelock.
3. A small crash-isolated campaign classifies a grid of seeded runs
   into the six-outcome taxonomy (masked / detected_recovered /
   degraded / sdc / hang / crash), persists every run to a SQLite
   campaign store as it lands, and proves resume-from-store is
   byte-identical (see docs/STORE.md).

    python examples/resilience_campaign.py
"""

import json
import tempfile

import numpy as np

from repro import ParaDoxSystem, golden_run
from repro.faults import FaultInjector, StuckAtFaultModel
from repro.isa import FunctionalUnit
from repro.resilience import CampaignSpec, run_campaign
from repro.stats import RunOutcome
from repro.store import CampaignStore
from repro.workloads import WorkloadProfile, build_synthetic


def act_one_quarantine() -> None:
    print("=== act 1: one defective checker is quarantined ===")
    profile = WorkloadProfile(
        name="quarantine-demo", alu=4, load=2, store=2, code_blocks=2,
        block_ops=16, working_set_kib=64, sequential_fraction=0.5,
    )
    workload = build_synthetic(profile, iterations=12, seed=1)
    golden = golden_run(workload)
    rng = np.random.default_rng(1)
    injector = FaultInjector(
        [StuckAtFaultModel(rng, unit=FunctionalUnit.INT_ALU, bit=1)],
        target="checker",
    )
    engine = ParaDoxSystem(resilient=True).engine(
        workload, seed=1, injector=injector
    )
    # Bind the defect to the first core the lowest-free-ID scheduler
    # will actually pick (the pool's randomised boot offset).
    defective = engine.pool.boot_offset
    injector.models[0].bound_checker_id = defective
    result = engine.run(workload.max_instructions)
    print(f"defective checker: {defective}")
    print(f"outcome: {result.outcome.value}, recoveries: {len(result.recoveries)}")
    for event in result.quarantine_events:
        print(
            f"quarantined checker {event.core_id} at {event.at_ns / 1e3:.1f} us "
            f"after {event.vindications} vindicated false detections"
        )
    assert result.outcome is RunOutcome.COMPLETED
    assert engine.memory == golden.memory
    print("final memory matches the golden run. ✓\n")


def act_two_typed_failure() -> None:
    print("=== act 2: a global permanent defect fails *typed* ===")
    profile = WorkloadProfile(
        name="fpf-demo", alu=4, load=2, store=2, code_blocks=2,
        block_ops=16, working_set_kib=64, sequential_fraction=0.5,
    )
    workload = build_synthetic(profile, iterations=4, seed=2)
    rng = np.random.default_rng(2)
    injector = FaultInjector(
        [StuckAtFaultModel(rng, unit=FunctionalUnit.INT_ALU, bit=1)],
        target="checker",
    )
    engine = ParaDoxSystem(resilient=True).engine(
        workload, seed=2, injector=injector
    )
    result = engine.run(workload.max_instructions)
    print(f"outcome: {result.outcome.value}")
    if result.failure is not None:
        print(f"diagnostics: {result.failure.summary()}")
    assert not result.livelocked, "typed failure must replace livelock"
    print()


def act_three_campaign() -> None:
    print("=== act 3: a store-backed, resumable campaign ===")
    spec = CampaignSpec(
        seeds=6, scale=0.3, rates=(3e-4,),
        models=("transient", "burst", "stuckat"), timeout_s=60.0,
    )
    store = tempfile.mkdtemp(prefix="repro-example-") + "/campaign.sqlite"
    report = run_campaign(
        spec,
        progress=lambda r: print(
            f"  run {r.run_id:2d} seed {r.seed:2d} {r.model:<9s} "
            f"-> {r.run_class.value}: {r.detail}"
        ),
        store_path=store,
    )
    print()
    print(report.summary_table())
    assert report.counts["crash"] == 0, "a crash is a simulator bug"

    # Every classified run was committed to the store as it landed
    # (one transaction each), so relaunching the same campaign — after
    # a SIGKILL, on another day — replays from the store instead of
    # re-simulating, and the canonical report is byte-identical.
    cached = []
    resumed = run_campaign(
        spec, store_path=store, resume=True, on_cached=cached.append
    )
    identical = json.dumps(resumed.to_dict(canonical=True)) == json.dumps(
        report.to_dict(canonical=True)
    )
    print(
        f"  resumed from {store}: {len(cached)} cached runs re-loaded, "
        f"0 re-executed, canonical report identical: {identical}"
    )
    assert identical
    with CampaignStore(store) as handle:
        [summary] = handle.list_campaigns()
        print(
            f"  store holds {summary['recorded']}/{summary['total_cells']} "
            f"cells; render it with: python -m repro report {store}"
        )


def main() -> None:
    act_one_quarantine()
    act_two_typed_failure()
    act_three_campaign()


if __name__ == "__main__":
    main()
