"""Unit tests for the resilience subsystem.

Covers the forward-progress guard's staged escalation, the voltage
controller's escalation hold, checker health tracking / quarantine and
its scheduler integration, the permanent and intermittent fault models,
and the injector's one-fault-per-operation rule.
"""

import numpy as np
import pytest

from repro.checkpoint import CheckpointLengthController
from repro.config import table1_config
from repro.core import ParaDoxSystem
from repro.dvfs import VoltageController
from repro.faults import (
    BurstFaultModel,
    FaultInjector,
    RegisterFaultModel,
    StuckAtFaultModel,
)
from repro.isa import ArchState, FunctionalUnit
from repro.resilience import (
    CheckerHealthTracker,
    ForwardProgressFailure,
    ForwardProgressGuard,
    ResilienceConfig,
)
from repro.scheduling import CheckerPool, SchedulingPolicy
from repro.stats import RunOutcome
from repro.workloads import (
    WorkloadProfile,
    build_bitcount,
    build_synthetic,
    golden_run,
)

from dataclasses import replace
from types import SimpleNamespace


def alu_write_info(dest_index=5, unit=FunctionalUnit.INT_ALU):
    """Minimal StepInfo stand-in: an instruction on ``unit`` writing x<n>."""
    return SimpleNamespace(
        instruction=SimpleNamespace(unit=unit),
        dest=("x", dest_index),
        address=None,
        taken=None,
        pc_before=0,
        pc_after=0,
    )


def make_guard(dvfs=None, injector=None, **overrides):
    config = table1_config()
    controller = CheckpointLengthController(config.checkpoint, adaptive=True)
    guard = ForwardProgressGuard(
        ResilienceConfig(**overrides), controller, dvfs=dvfs, injector=injector
    )
    return guard, controller


def make_dvfs(initial_difference=0.1):
    config = table1_config()
    dvfs_config = replace(config.dvfs, initial_difference=initial_difference)
    return VoltageController(dvfs_config, config.main_core.frequency_hz)


class TestForwardProgressGuard:
    def test_streak_counts_same_checkpoint_only(self):
        guard, _ = make_guard()
        guard.on_rollback(100, 1.0)
        guard.on_rollback(100, 2.0)
        assert guard.streak == 2
        guard.on_rollback(200, 3.0)  # a different checkpoint restarts
        assert guard.streak == 1

    def test_commit_past_checkpoint_resets_but_older_does_not(self):
        guard, _ = make_guard()
        guard.on_rollback(100, 1.0)
        guard.on_commit(100)  # the segment *ending at* the checkpoint
        assert guard.streak == 1
        guard.on_commit(150)  # progress past it
        assert guard.streak == 0

    def test_shrink_stage_collapses_checkpoint_target(self):
        guard, controller = make_guard(shrink_after=3)
        config = table1_config().checkpoint
        for i in range(3):
            guard.on_rollback(5, float(i))
        assert controller.target == config.min_instructions
        assert [e.stage for e in guard.events] == ["shrink"]

    def test_voltage_stage_escalates_until_safe(self):
        dvfs = make_dvfs(initial_difference=0.1)
        guard, _ = make_guard(dvfs=dvfs, escalate_after=2, fail_after=10_000)
        now = 0.0
        while not dvfs.at_safe_voltage:
            now += 1000.0  # 1 us per retry: plenty of slew headroom
            guard.on_rollback(5, now)
        assert dvfs.stats.escalations > 0
        assert any(e.stage == "voltage" for e in guard.events)

    def test_fail_stage_raises_typed_failure_with_diagnostics(self):
        guard, _ = make_guard(fail_after=4)  # no dvfs: always "at safe"
        with pytest.raises(ForwardProgressFailure) as exc:
            for i in range(4):
                guard.on_rollback(77, float(i), checker_id=3, channel="register")
        diag = exc.value.diagnostics
        assert diag.checkpoint_instret == 77
        assert diag.consecutive_rollbacks == 4
        assert diag.implicated_checker == 3
        assert diag.channel_counts == {"register": 4}
        assert diag.at_safe_voltage

    def test_no_failure_below_safe_voltage(self):
        dvfs = make_dvfs(initial_difference=0.1)
        guard, _ = make_guard(dvfs=dvfs, fail_after=4)
        # Zero elapsed time: the regulator cannot slew, so the guard must
        # keep escalating instead of failing.
        for i in range(20):
            guard.on_rollback(5, 0.0)
        assert guard.streak == 20

    def test_failure_names_persistent_faults(self):
        rng = np.random.default_rng(0)
        injector = FaultInjector(
            [StuckAtFaultModel(rng, unit=FunctionalUnit.INT_MUL, bit=7)],
            target="checker",
        )
        guard, _ = make_guard(injector=injector, fail_after=2)
        with pytest.raises(ForwardProgressFailure) as exc:
            for i in range(2):
                guard.on_rollback(0, float(i))
        assert any("int_mul" in s for s in exc.value.diagnostics.suspected_faults)


class TestEscalationHold:
    def test_hold_blocks_aimd_descent_until_released(self):
        dvfs = make_dvfs(initial_difference=0.1)
        dvfs.escalate(0.0)
        held = dvfs.target_voltage
        dvfs.on_checkpoint(error_observed=False, now_ns=10.0)
        assert dvfs.target_voltage == held  # no descent while held
        dvfs.release_hold()
        dvfs.on_checkpoint(error_observed=False, now_ns=20.0)
        assert dvfs.target_voltage < held

    def test_guard_releases_hold_on_progress(self):
        dvfs = make_dvfs(initial_difference=0.1)
        guard, _ = make_guard(dvfs=dvfs, escalate_after=1)
        guard.on_rollback(5, 0.0)  # escalates, sets the hold
        before = dvfs.target_voltage
        guard.on_commit(50)  # progress releases the hold
        dvfs.on_checkpoint(error_observed=False, now_ns=10.0)
        assert dvfs.target_voltage < before

    def test_escalation_reaches_safe_despite_checkpoint_traffic(self):
        # The scenario behind the hold: every storm retry closes a
        # checkpoint, whose AIMD decrease must not outrun escalation.
        dvfs = make_dvfs(initial_difference=0.1)
        now = 0.0
        for _ in range(200):
            now += 100.0
            dvfs.on_checkpoint(error_observed=True, now_ns=now)
            if not dvfs.at_safe_voltage:
                dvfs.escalate(now)
            now += 100.0
            dvfs.on_checkpoint(error_observed=False, now_ns=now)
        assert dvfs.at_safe_voltage


class TestCheckerHealth:
    def test_quarantine_after_threshold_vindications(self):
        tracker = CheckerHealthTracker(4, quarantine_vindications=3)
        tracker.record_detection(2)
        assert tracker.record_vindication(2, 1.0) is None
        assert tracker.record_vindication(2, 2.0) is None
        event = tracker.record_vindication(2, 3.0)
        assert event is not None and event.core_id == 2
        assert tracker.is_quarantined(2)
        assert tracker.quarantined == {2}
        assert tracker.active_count == 3

    def test_absolution_resets_suspicion(self):
        tracker = CheckerHealthTracker(4, quarantine_vindications=3)
        tracker.record_vindication(1, 1.0)
        tracker.record_vindication(1, 2.0)
        tracker.record_absolution(1)  # a genuine detection clears it
        assert tracker.record_vindication(1, 3.0) is None
        assert not tracker.is_quarantined(1)

    def test_never_quarantines_last_healthy_core(self):
        tracker = CheckerHealthTracker(2, quarantine_vindications=1)
        assert tracker.record_vindication(0, 1.0) is not None
        assert tracker.record_vindication(1, 2.0) is None
        assert tracker.active_count == 1

    def test_pool_skips_quarantined_cores(self):
        tracker = CheckerHealthTracker(4, quarantine_vindications=1)
        pool = CheckerPool(4, SchedulingPolicy.LOWEST_FREE_ID)
        tracker.record_vindication(0, 0.0)
        core, _ = pool.select(0.0, health=tracker)
        assert core != 0

    def test_pool_avoid_set_steers_retry(self):
        pool = CheckerPool(4, SchedulingPolicy.LOWEST_FREE_ID)
        core, _ = pool.select(0.0, avoid={0})
        assert core != 0
        # If every core is excluded the constraint is dropped, not a deadlock.
        core, _ = pool.select(0.0, avoid={0, 1, 2, 3})
        assert core in {0, 1, 2, 3}


class TestFaultModels:
    def test_stuck_at_forces_bit(self):
        rng = np.random.default_rng(0)
        model = StuckAtFaultModel(rng, unit=FunctionalUnit.INT_ALU, bit=0)
        state = ArchState()
        state.regs.write_x(5, 0b1010)  # bit 0 clear
        assert model.on_instruction(state, alu_write_info(5))
        assert state.regs.read_x(5) == 0b1011

    def test_stuck_at_masked_when_bit_matches(self):
        rng = np.random.default_rng(0)
        model = StuckAtFaultModel(rng, unit=FunctionalUnit.INT_ALU, bit=1)
        state = ArchState()
        state.regs.write_x(5, 0b1010)  # bit 1 already set
        assert not model.on_instruction(state, alu_write_info(5))
        assert state.regs.read_x(5) == 0b1010

    def test_stuck_at_ignores_other_units_and_x0(self):
        rng = np.random.default_rng(0)
        model = StuckAtFaultModel(rng, unit=FunctionalUnit.INT_ALU, bit=0)
        state = ArchState()
        other = alu_write_info(5, unit=FunctionalUnit.INT_MUL)
        assert not model.on_instruction(state, other)
        assert not model.on_instruction(state, alu_write_info(0))  # x0

    def test_stuck_at_is_permanent(self):
        rng = np.random.default_rng(0)
        model = StuckAtFaultModel(rng, unit=FunctionalUnit.INT_MUL, bit=3)
        assert model.persistent
        model.set_rate(0.0)  # a broken wire does not heal
        assert model.may_fire_within(1)
        assert not model.may_fire_within(0)
        assert "int_mul" in model.describe()

    def test_burst_model_markov_chain(self):
        rng = np.random.default_rng(42)
        model = BurstFaultModel(0.01, rng, burst_rate=0.5, mean_burst_ops=10.0)
        state = ArchState()
        fired = 0
        for _ in range(2000):
            if model.on_instruction(state, alu_write_info(5)):
                fired += 1
        assert model.bursts_entered > 0
        assert fired > 0

    def test_burst_entry_rate_follows_set_rate(self):
        rng = np.random.default_rng(0)
        model = BurstFaultModel(1e-4, rng, entry_scale=10.0)
        assert model.entry_probability == pytest.approx(1e-3)
        model.set_rate(0.0)
        assert model.entry_probability == 0.0
        model.in_burst = True
        assert model.may_fire_within(5)  # an in-flight burst keeps firing


class TestInjectorRules:
    def test_at_most_one_fault_per_load(self):
        # Two always-firing models must not both corrupt one value: the
        # second flip can silently cancel the first.
        class AlwaysFlip(RegisterFaultModel):
            def on_load(self, value):
                return value ^ 1, True

        rng = np.random.default_rng(0)
        injector = FaultInjector(
            [AlwaysFlip(1.0, rng), AlwaysFlip(1.0, rng)], target="checker"
        )
        corrupted = injector.corrupt_load(0, 0)
        assert corrupted == 1  # flipped exactly once
        assert injector.stats.load_faults == 1

    def test_bound_model_fires_only_on_its_checker(self):
        rng = np.random.default_rng(0)
        model = StuckAtFaultModel(
            rng, unit=FunctionalUnit.INT_ALU, bit=0, bound_checker_id=2
        )
        injector = FaultInjector([model], target="checker")
        state = ArchState()
        state.regs.write_x(5, 0b1010)
        info = alu_write_info(5)
        injector.begin_check(1)
        injector.after_instruction(state, info, 0)
        assert injector.stats.instruction_faults == 0
        injector.begin_check(2)
        injector.after_instruction(state, info, 0)
        assert injector.stats.instruction_faults == 1


class TestEngineIntegration:
    def test_bound_stuck_at_quarantined_and_run_completes(self):
        workload = build_bitcount(values=40)
        golden = golden_run(workload)
        rng = np.random.default_rng(7)
        injector = FaultInjector(
            [
                StuckAtFaultModel(
                    rng, unit=FunctionalUnit.INT_ALU, bit=2, bound_checker_id=0
                )
            ],
            target="checker",
        )
        system = ParaDoxSystem(resilient=True)
        result = system.run(workload, seed=7, injector=injector)
        assert result.outcome is RunOutcome.COMPLETED
        assert [e.core_id for e in result.quarantine_events] == [0]
        assert result.program_output == golden.output

    def test_global_stuck_at_fails_typed_never_livelocks(self):
        workload = build_bitcount(values=40)
        rng = np.random.default_rng(7)
        injector = FaultInjector(
            [StuckAtFaultModel(rng, unit=FunctionalUnit.INT_ALU, bit=2)],
            target="checker",
        )
        system = ParaDoxSystem(resilient=True)
        result = system.run(workload, seed=7, injector=injector)
        assert result.outcome is RunOutcome.FORWARD_PROGRESS_FAILURE
        assert not result.livelocked
        assert result.failure is not None
        assert any("int_alu" in s for s in result.failure.suspected_faults)

    def test_crawling_stuck_at_storm_fails_typed_not_livelock(self):
        # Regression (found by the typed-outcome property): a pervasive
        # stuck-at lets the run *crawl* — retries at moments when the bit
        # already holds the stuck value commit clean, resetting the
        # guard's same-checkpoint streak — so fail_after never trips and
        # the livelock budget exhausts first.  Budget exhaustion with a
        # persistent model at the safe voltage must still surface as a
        # typed forward-progress failure naming the unit.
        profile = WorkloadProfile(
            name="crawling-storm", alu=5.5, mul=1.0, load=1.0, store=0.5,
            working_set_kib=32, sequential_fraction=0.0,
            code_blocks=3, block_ops=11,
        )
        workload = build_synthetic(profile, iterations=3, seed=5553 % 1000)
        rng = np.random.default_rng(5553)
        injector = FaultInjector(
            [StuckAtFaultModel(rng, unit=FunctionalUnit.INT_MUL, bit=24)],
            target="checker",
        )
        engine = ParaDoxSystem(resilient=True).engine(
            workload, seed=5553, injector=injector
        )
        result = engine.run(workload.max_instructions)
        assert result.outcome is RunOutcome.FORWARD_PROGRESS_FAILURE
        assert not result.livelocked
        assert any("int_mul" in s for s in result.failure.suspected_faults)

    def test_livelock_is_an_outcome_not_an_exception(self):
        workload = build_bitcount(values=40)
        system = ParaDoxSystem()  # legacy mode: no resilience layer
        engine = system.engine(workload, seed=1)
        engine.options.livelock_factor = 0.01  # force the budget to trip
        result = engine.run(workload.max_instructions)
        assert result.outcome is RunOutcome.LIVELOCK
        assert result.livelocked

    def test_legacy_runs_default_to_completed(self):
        workload = build_bitcount(values=40)
        result = ParaDoxSystem().run(workload, seed=1)
        assert result.outcome is RunOutcome.COMPLETED
        assert result.quarantine_events == []
        assert result.escalations == []
