"""Paranoid mode: transparent when healthy, loud when bookkeeping lies."""

import pytest

from repro.core import ParaDoxSystem, ParaMedicSystem
from repro.core.engine import PendingCheck
from repro.core.systems import BaselineSystem
from repro.cores.checker_core import CheckResult
from repro.faults.injector import default_injector
from repro.lslog import SegmentCloseReason
from repro.lslog.detection import FinalStateMismatch
from repro.oracle import EngineInvariantError, ParanoidChecker
from repro.scheduling import DispatchRecord
from repro.workloads import build_spec_workload


def fingerprint(result):
    return (
        result.outcome,
        result.instructions,
        result.instructions_executed,
        result.segments,
        result.wall_ns,
        len(result.recoveries),
        result.program_output,
        result.mean_checkpoint_length,
    )


class TestTransparency:
    @pytest.mark.parametrize("system_cls", [ParaMedicSystem, ParaDoxSystem])
    def test_results_bit_identical_with_paranoid(self, system_cls):
        workload = build_spec_workload("mcf", iterations=6, seed=9)
        plain = system_cls().run(workload, seed=9)
        watched = system_cls(paranoid=True).run(workload, seed=9)
        assert fingerprint(watched) == fingerprint(plain)

    def test_disabled_engine_has_no_checker(self):
        workload = build_spec_workload("sjeng", iterations=2, seed=3)
        engine = ParaMedicSystem().engine(workload, seed=3)
        assert engine.paranoid is None
        engine = ParaMedicSystem(paranoid=True).engine(workload, seed=3)
        assert engine.paranoid is not None


class TestFaultHeavyRuns:
    """Rollback and quarantine paths must satisfy the invariants too."""

    @pytest.mark.parametrize("target", ["checker", "main"])
    def test_injected_runs_complete_under_paranoid(self, target):
        workload = build_spec_workload("mcf", iterations=8, seed=21)
        rate = 1e-4 if target == "checker" else 1e-3
        injector = default_injector(rate, seed=21, target=target)
        result = ParaMedicSystem(paranoid=True).run(
            workload, seed=21, injector=injector
        )
        assert result.outcome.value == "completed"
        assert result.recoveries, "fault rate chosen to force recoveries"

    def test_paradox_dvs_run_under_paranoid(self):
        workload = build_spec_workload("sjeng", iterations=6, seed=4)
        result = ParaDoxSystem(dvs=True, paranoid=True).run(workload, seed=4)
        assert result.outcome.value == "completed"


class TestDetectsCorruption:
    """The assertions are live: seeded inconsistencies must raise."""

    def _running_engine(self):
        workload = build_spec_workload("mcf", iterations=4, seed=5)
        engine = ParaMedicSystem(paranoid=True).engine(workload, seed=5)
        # Run a slice so tracker/pending state is populated.
        engine.run(max_instructions=400)
        return engine

    def test_bogus_tracker_stamp_raises(self):
        engine = self._running_engine()
        engine.tracker._timestamp[0xDEAD000] = 999
        with pytest.raises(EngineInvariantError, match="tracker|stamped"):
            engine.paranoid.verify(engine, "test")

    def test_set_load_counter_drift_raises(self):
        engine = self._running_engine()
        engine.tracker._set_load[0] += 1
        with pytest.raises(EngineInvariantError, match="set-load"):
            engine.paranoid.verify(engine, "test")

    def test_detection_counter_drift_raises(self):
        # A detection queued behind the engine's back: the pointer to the
        # earliest pending detection no longer names it.
        engine = self._running_engine()
        segment = engine._segment
        planted = PendingCheck(
            segment,
            DispatchRecord(0, segment.seq, engine.wall_ns, engine.wall_ns),
            CheckResult(FinalStateMismatch("planted"), 0, 0.0),
            engine.wall_ns,
        )
        engine._pending.append(planted)
        assert engine._earliest_detection is not planted
        with pytest.raises(EngineInvariantError, match="earliest detection"):
            engine.paranoid.verify(engine, "test")

    def test_stale_earliest_detection_raises(self):
        engine = self._running_engine()
        engine._earliest_detection = object()
        with pytest.raises(EngineInvariantError, match="earliest detection"):
            engine.paranoid.verify(engine, "test")

    def test_non_monotonic_close_raises(self):
        engine = self._running_engine()
        checker = engine.paranoid
        segment = engine._segment
        assert segment is not None
        checker._last_closed_seq = segment.seq + 50
        segment.close(engine.state.snapshot(), SegmentCloseReason.EXTERNAL)
        with pytest.raises(EngineInvariantError, match="monotonic"):
            checker.on_close(engine, segment)

    def test_unclosed_segment_raises_on_close_hook(self):
        engine = self._running_engine()
        segment = engine._segment
        assert segment is not None and not segment.is_closed
        with pytest.raises(EngineInvariantError, match="not marked closed"):
            engine.paranoid.on_close(engine, segment)

    def test_stale_stamp_after_rollback_raises(self):
        engine = self._running_engine()
        engine.tracker._timestamp[0xBEEF000] = 10_000
        with pytest.raises(EngineInvariantError, match="rollback|survive"):
            engine.paranoid.on_rollback(engine, 1)

    def test_fresh_checker_accepts_baseline_engine(self):
        # Checking=False engines have no pool/dvfs; verify() must cope.
        workload = build_spec_workload("sjeng", iterations=2, seed=2)
        engine = BaselineSystem(paranoid=True).engine(workload, seed=2)
        engine.run(max_instructions=200)
        ParanoidChecker().verify(engine, "baseline")
