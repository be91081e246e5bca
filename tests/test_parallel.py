"""Tests for repro.parallel: fan-out isolation, ordering, determinism.

The contract under test: ``run_fanout`` returns one outcome per payload
in payload order regardless of completion order; a worker that raises,
dies or hangs costs exactly its own slot; ``parallel_map(jobs=1)`` is
the serial reference path and any ``jobs`` width reproduces it
bit-identically; ``derive_seed`` is a pure function of its inputs.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.parallel import (
    FanoutError,
    FanoutOutcome,
    derive_seed,
    parallel_map,
    resolve_jobs,
    run_fanout,
)

# Workers must be importable module-level callables (they are pickled).


def _square(value):
    return value * value


def _slow_square(value):
    time.sleep(0.2 * value)
    return value * value


def _misbehave(mode):
    if mode == "error":
        raise RuntimeError("worker error hook")
    if mode == "die":
        os._exit(23)
    if mode == "hang":
        time.sleep(3600)
    return "ok"


class TestResolveJobs:
    def test_positive_passthrough(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_auto_is_bounded(self):
        auto = resolve_jobs(0)
        assert 1 <= auto <= 8
        assert resolve_jobs(-3) == auto


class TestRunFanout:
    def test_results_in_payload_order(self):
        # Larger payloads take longer, so completion order is reversed
        # relative to payload order; results must not be.
        outcomes = run_fanout(_slow_square, [3, 2, 1, 0], jobs=4)
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert [o.value for o in outcomes] == [9, 4, 1, 0]
        assert all(o.ok for o in outcomes)

    def test_error_worker_ships_traceback(self):
        outcomes = run_fanout(_misbehave, ["error"], jobs=1)
        assert outcomes[0].status == "error"
        assert not outcomes[0].ok
        assert "worker error hook" in (outcomes[0].traceback or "")

    def test_dead_worker_reports_exit_code(self):
        outcomes = run_fanout(_misbehave, ["die"], jobs=1)
        assert outcomes[0].status == "died"
        assert outcomes[0].exitcode == 23

    def test_timeout_worker_is_terminated(self):
        started = time.monotonic()
        outcomes = run_fanout(_misbehave, ["hang"], jobs=1, timeout_s=1.0)
        assert outcomes[0].status == "timeout"
        assert time.monotonic() - started < 30.0

    def test_failures_cost_only_their_slot(self):
        payloads = ["keep", "error", "die", "keep"]
        outcomes = run_fanout(_misbehave, payloads, jobs=2)
        assert [o.status for o in outcomes] == ["ok", "error", "died", "ok"]
        assert outcomes[0].value == "ok"
        assert outcomes[3].value == "ok"

    def test_on_outcome_streams_every_payload(self):
        seen: "list[FanoutOutcome]" = []
        run_fanout(_square, [1, 2, 3], jobs=3, on_outcome=seen.append)
        assert sorted(o.index for o in seen) == [0, 1, 2]

    def test_empty_payloads(self):
        assert run_fanout(_square, [], jobs=4) == []


class TestParallelMap:
    def test_serial_path_runs_in_process(self):
        # jobs=1 must not spawn: an in-process side effect proves it.
        marker = []

        def worker(value):  # closures are fine serially (never pickled)
            marker.append(value)
            return value + 1

        assert parallel_map(worker, [1, 2], jobs=1) == [2, 3]
        assert marker == [1, 2]

    def test_matches_serial(self):
        serial = parallel_map(_square, list(range(10)), jobs=1)
        fanned = parallel_map(_square, list(range(10)), jobs=4)
        assert fanned == serial

    def test_raises_on_worker_error(self):
        with pytest.raises(FanoutError, match="error"):
            parallel_map(_misbehave, ["error"], jobs=2)

    def test_raises_on_worker_death(self):
        with pytest.raises(FanoutError, match="died"):
            parallel_map(_misbehave, ["die"], jobs=2)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(12345, "bzip2", "paradox") == derive_seed(
            12345, "bzip2", "paradox"
        )

    def test_sensitive_to_every_component(self):
        base = derive_seed(12345, "bzip2", "paradox")
        assert derive_seed(12346, "bzip2", "paradox") != base
        assert derive_seed(12345, "gcc", "paradox") != base
        assert derive_seed(12345, "bzip2", "baseline") != base

    def test_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_31_bit_range(self):
        for key in range(50):
            seed = derive_seed(key, "workload", key)
            assert 0 <= seed < 2**31

    def test_survives_subprocess(self):
        # The whole point vs hash(): identical across processes.
        [remote] = parallel_map(_derive_remote, [(777, "milc", "paradox")], jobs=2)
        assert remote == derive_seed(777, "milc", "paradox")


def _derive_remote(key):
    return derive_seed(*key)


class TestSuiteBitIdentity:
    def test_jobs2_matches_serial(self):
        from repro.experiments.spec_runs import SUITE_SYSTEMS, run_spec_suite

        names = ["bzip2", "milc"]
        for jit in (True, False):
            serial = run_spec_suite(iterations=4, names=names, seed=99, jit=jit)
            fanned = run_spec_suite(
                iterations=4, names=names, seed=99, jit=jit, jobs=2
            )
            for system in SUITE_SYSTEMS:
                for name in names:
                    mine = fanned.by_system(system)[name]
                    ref = serial.by_system(system)[name]
                    assert mine.wall_ns == ref.wall_ns, (jit, system, name)
                    assert mine.instructions == ref.instructions
                    assert len(mine.recoveries) == len(ref.recoveries)
                    assert mine.program_output == ref.program_output

    def test_spread_seeds_stable_across_widths(self):
        from repro.experiments.spec_runs import run_spec_suite

        kwargs = dict(
            iterations=4, names=["bzip2"], seed=5, systems=("paradox",),
            spread_seeds=True,
        )
        serial = run_spec_suite(**kwargs)
        fanned = run_spec_suite(jobs=2, **kwargs)
        assert (
            serial.paradox["bzip2"].wall_ns == fanned.paradox["bzip2"].wall_ns
        )

    def test_build_suite_tasks_rejects_unknown_system(self):
        from repro.experiments.spec_runs import build_suite_tasks

        with pytest.raises(ValueError, match="unknown systems"):
            build_suite_tasks(["bzip2"], ["warp-drive"], 4, 1)

    def test_spread_seeds_differ_per_run(self):
        from repro.experiments.spec_runs import build_suite_tasks

        tasks = build_suite_tasks(
            ["bzip2", "gcc"], ["baseline", "paradox"], 4, 1, spread_seeds=True
        )
        seeds = {task.run_seed for task in tasks}
        assert len(seeds) == len(tasks)
        # The workload build seed stays shared: every system must
        # simulate the same program.
        assert {task.build_seed for task in tasks} == {1}
