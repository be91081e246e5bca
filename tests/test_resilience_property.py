"""The resilience layer's invariant, property-tested.

Whatever the seeded fault storm — transient composite, Gilbert–Elliott
bursts, permanent stuck-at bits, any rate, any seed — a resilient
ParaDox run must end in a *typed* outcome: completed (bit-identical to
the golden run), livelock, or forward-progress failure.  It must never
escape with an unhandled exception; and a permanent fault at the safe
voltage must surface as a forward-progress failure naming the defective
unit, never as a livelock abort.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import ParaDoxSystem
from repro.faults import (
    BurstFaultModel,
    FaultInjector,
    FunctionalUnitFaultModel,
    MemoryFaultModel,
    RegisterFaultModel,
    StuckAtFaultModel,
)
from repro.isa import FunctionalUnit
from repro.stats import RunOutcome
from repro.workloads import WorkloadProfile, build_synthetic, golden_run

PROFILES = st.builds(
    WorkloadProfile,
    name=st.just("resilience-prop"),
    alu=st.floats(min_value=1.0, max_value=8.0),
    mul=st.floats(min_value=0.0, max_value=1.0),
    load=st.floats(min_value=0.5, max_value=4.0),
    store=st.floats(min_value=0.5, max_value=3.0),
    working_set_kib=st.sampled_from([32, 128]),
    sequential_fraction=st.floats(min_value=0.0, max_value=1.0),
    code_blocks=st.integers(min_value=1, max_value=4),
    block_ops=st.integers(min_value=8, max_value=24),
)

COMMON_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

TYPED_OUTCOMES = {
    RunOutcome.COMPLETED,
    RunOutcome.LIVELOCK,
    RunOutcome.FORWARD_PROGRESS_FAILURE,
}


def storm_injector(rate, seed, bursts=False):
    rng = np.random.default_rng(seed)
    models = [
        RegisterFaultModel(rate, rng),
        FunctionalUnitFaultModel(rate, rng, FunctionalUnit.INT_MUL),
        MemoryFaultModel(rate, rng, target="load"),
    ]
    if bursts:
        models.append(
            BurstFaultModel(rate, rng, burst_rate=0.1, mean_burst_ops=300.0)
        )
    return FaultInjector(models, target="checker")


class TestTypedOutcomeProperty:
    @COMMON_SETTINGS
    @given(
        profile=PROFILES,
        seed=st.integers(min_value=0, max_value=2**31),
        rate=st.sampled_from([1e-4, 1e-3, 5e-3]),
        bursts=st.booleans(),
    )
    def test_any_storm_ends_in_a_typed_outcome(self, profile, seed, rate, bursts):
        workload = build_synthetic(profile, iterations=3, seed=seed % 1000)
        golden = golden_run(workload)
        engine = ParaDoxSystem(resilient=True).engine(
            workload, seed=seed, injector=storm_injector(rate, seed, bursts)
        )
        engine.options.livelock_factor = 32
        result = engine.run(workload.max_instructions)  # must not raise
        assert result.outcome in TYPED_OUTCOMES
        if result.outcome is RunOutcome.COMPLETED:
            assert engine.memory == golden.memory
            assert result.program_output == golden.output
        elif result.outcome is RunOutcome.FORWARD_PROGRESS_FAILURE:
            assert result.failure is not None

    @COMMON_SETTINGS
    @given(
        profile=PROFILES,
        seed=st.integers(min_value=0, max_value=2**31),
        unit=st.sampled_from([FunctionalUnit.INT_ALU, FunctionalUnit.INT_MUL]),
        bit=st.integers(min_value=0, max_value=47),
    )
    def test_stuck_at_fails_typed_at_safe_voltage(self, profile, seed, unit, bit):
        """A permanent defect at the safe voltage (no DVS) must produce a
        forward-progress failure naming the unit — never a livelock."""
        workload = build_synthetic(profile, iterations=3, seed=seed % 1000)
        rng = np.random.default_rng(seed)
        injector = FaultInjector(
            [StuckAtFaultModel(rng, unit=unit, bit=bit)], target="checker"
        )
        engine = ParaDoxSystem(resilient=True).engine(
            workload, seed=seed, injector=injector
        )
        result = engine.run(workload.max_instructions)  # must not raise
        assert result.outcome in (
            RunOutcome.COMPLETED,  # every firing masked (bit already held)
            RunOutcome.FORWARD_PROGRESS_FAILURE,
        )
        assert not result.livelocked
        if result.outcome is RunOutcome.FORWARD_PROGRESS_FAILURE:
            assert any(
                unit.value in desc for desc in result.failure.suspected_faults
            )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bound_stuck_at_quarantine_keeps_run_alive(seed):
    """A defective *checker* is quarantined and the run still completes."""
    profile = WorkloadProfile(
        name="quarantine", alu=4, load=2, store=2, code_blocks=2, block_ops=16,
        working_set_kib=64, sequential_fraction=0.5,
    )
    workload = build_synthetic(profile, iterations=12, seed=seed)
    golden = golden_run(workload)
    rng = np.random.default_rng(seed)
    injector = FaultInjector(
        [StuckAtFaultModel(rng, unit=FunctionalUnit.INT_ALU, bit=1)],
        target="checker",
    )
    engine = ParaDoxSystem(resilient=True).engine(
        workload, seed=seed, injector=injector
    )
    # Lowest-free-ID scheduling starts at the pool's randomised boot
    # offset, so bind the defect to the core that will actually replay
    # segments (a defect on a never-selected core is vacuously benign).
    defective = engine.pool.boot_offset
    injector.models[0].bound_checker_id = defective
    result = engine.run(workload.max_instructions)
    assert result.outcome is RunOutcome.COMPLETED
    assert engine.memory == golden.memory
    assert result.program_output == golden.output
    assert [e.core_id for e in result.quarantine_events] == [defective]
