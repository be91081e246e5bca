"""Merge gates for the compiled superblock tier.

The tier must stay exact and worth having: on bzip2 the compiled
executor must match the interpreter bit for bit and run at least twice
as fast, and a full ParaDox run on milc must simulate the same time and
instruction count with the tier on and off.

    PYTHONPATH=src python -m pytest benchmarks/test_hotpath_gates.py -q
"""

from __future__ import annotations

import time

from repro.core import ParaDoxSystem
from repro.workloads import build_spec_workload, golden_run

#: The tier amortises block binding over run length, so both gates run
#: at a steady-state size.
ITERATIONS = 400
MIN_EXECUTOR_SPEEDUP = 2.0


def _best_of(fn, repeats: int = 3) -> float:
    """Minimum wall-clock seconds of ``repeats`` calls to ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_compiled_executor_is_exact_and_twice_as_fast():
    workload = build_spec_workload("bzip2", iterations=ITERATIONS)
    interp = golden_run(workload)
    jitted = golden_run(workload, jit=True)  # also compiles the blocks
    assert interp.state.regs.x == jitted.state.regs.x
    assert interp.state.regs.f == jitted.state.regs.f
    assert interp.instructions == jitted.instructions
    assert interp.output == jitted.output
    assert interp.memory.words == jitted.memory.words

    interp_s = _best_of(lambda: golden_run(workload))
    jit_s = _best_of(lambda: golden_run(workload, jit=True))
    speedup = interp_s / jit_s
    assert speedup >= MIN_EXECUTOR_SPEEDUP, (
        f"compiled tier only {speedup:.2f}x over the interpreter; "
        f"expected >= {MIN_EXECUTOR_SPEEDUP}x"
    )


def test_compiled_engine_is_exact():
    workload = build_spec_workload("milc", iterations=ITERATIONS)
    tiered = ParaDoxSystem().run(workload, seed=12345)
    plain = ParaDoxSystem(jit=False).run(workload, seed=12345)
    assert tiered.wall_ns == plain.wall_ns
    assert tiered.instructions == plain.instructions
