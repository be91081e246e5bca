"""Regression tests for stall accounting and main-trap edge cases.

Covers:

* ``_stall_to_wall`` took free-form bucket strings and silently dropped
  time for unknown ones — the end-of-run drain stall (``"drain"``)
  vanished from ``StallBreakdown.total_ns``.  Buckets are now the
  :class:`repro.stats.StallBucket` enum and the accounting is total by
  construction.
* A main-core trap with nothing to undo (no stores in the filling
  segment, no check pending) must still recover: one ``MAIN_TRAP``
  recovery that restores nothing, then filling re-opens at the same
  instret.  An unprotected core has no recovery, so its trap propagates.
"""

from __future__ import annotations

import pytest

from repro.config import table1_config
from repro.core import ParaDoxSystem
from repro.core.engine import EngineOptions, SimulationEngine
from repro.isa import ProgramBuilder
from repro.isa.errors import InvalidPcTrap
from repro.lslog.detection import DetectionChannel
from repro.stats import StallBreakdown, StallBucket
from repro.workloads import build_bitcount


class TestStallBreakdown:
    def test_every_bucket_lands_in_total(self):
        stalls = StallBreakdown()
        for offset, bucket in enumerate(StallBucket):
            stalls.add(bucket, float(offset + 1))
        expected = sum(range(1, len(StallBucket) + 1))
        assert stalls.total_ns == pytest.approx(float(expected))

    def test_named_fields_match_buckets(self):
        stalls = StallBreakdown()
        stalls.add(StallBucket.DRAIN, 7.0)
        stalls.add(StallBucket.CHECKER_WAIT, 3.0)
        assert stalls.drain_ns == 7.0
        assert stalls.checker_wait_ns == 3.0
        assert stalls.total_ns == 10.0

    def test_unknown_bucket_fails_loudly(self):
        stalls = StallBreakdown()
        with pytest.raises(ValueError, match="stall bucket"):
            stalls.add("drain", 1.0)  # a string is not a bucket any more


def _engine(error_rate: float = 0.0, seed: int = 3) -> SimulationEngine:
    workload = build_bitcount(values=40)
    config = table1_config().with_error_rate(error_rate, seed=seed)
    system = ParaDoxSystem(config=config)
    return system.engine(workload, seed=seed)


class TestEngineStallAccounting:
    def test_stall_to_wall_fills_named_buckets(self):
        engine = _engine()
        engine._open_segment(engine.state.snapshot())
        for bucket in StallBucket:
            if bucket is StallBucket.CHECKPOINT:
                continue  # injected via block_commit, not _stall_to_wall
            engine._stall_to_wall(engine.wall_ns + 5.0, bucket)
        stalls = engine.stalls
        assert stalls.checker_wait_ns == pytest.approx(5.0)
        assert stalls.conflict_ns == pytest.approx(5.0)
        assert stalls.rollback_ns == pytest.approx(5.0)
        assert stalls.drain_ns == pytest.approx(5.0)
        assert stalls.total_ns == pytest.approx(20.0)

    def test_drain_stall_is_accounted_under_errors(self):
        # With a heavy error rate some detections resolve during the
        # final drain; that time must appear in the breakdown rather
        # than silently extending wall_ns.
        result = ParaDoxSystem(
            config=table1_config().with_error_rate(2e-3, seed=11)
        ).run(build_bitcount(values=200))
        assert result.errors_detected > 0
        assert result.stalls.total_ns >= result.stalls.drain_ns >= 0.0

    def test_summary_reports_drain(self):
        result = ParaDoxSystem().run(build_bitcount(values=40))
        assert "drain" in result.summary()


class TestMainTrapWithoutSegment:
    def test_trap_between_segments_recovers(self):
        engine = _engine()
        engine._open_segment(engine.state.snapshot())
        filler = engine._segment
        for _ in range(5):
            filler.record_instruction(0, False)
            engine.executor.step()
        assert filler.store_count == 0 and not engine._pending
        engine._handle_main_trap(InvalidPcTrap(10_000))
        (event,) = engine.recoveries
        assert event.channel is DetectionChannel.MAIN_TRAP
        assert event.segment_seq == filler.seq
        assert event.rollback_entries == 0
        assert event.segments_rolled_back == 0
        reopened = engine._segment
        assert reopened is not filler and not reopened.is_closed
        assert reopened.start_state.instret == filler.start_state.instret
        assert engine.state.instret == filler.start_state.instret

    def test_unprotected_trap_still_raises(self):
        program = ProgramBuilder("wild").movi(1, 10_000).jalr(1).halt().build()
        engine = SimulationEngine(
            program, table1_config(), EngineOptions(checking=False)
        )
        with pytest.raises(InvalidPcTrap):
            engine.run()
