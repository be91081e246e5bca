"""Merge gates for the compiled superblock tier.

The tier must stay exact and worth having in the loops that run it.  On
bzip2 the unprotected engine loop (the baseline system, commit-only
blocks) must end in the golden run's registers and memory with the
tier on and off, simulate the same time, and run at least 1.3x as fast
with it; a full ParaDox run on milc (record blocks) must simulate the
same time and instruction count with the tier on and off.

    PYTHONPATH=src python -m pytest benchmarks/test_hotpath_gates.py -q
"""

from __future__ import annotations

import time

from repro.core import BaselineSystem, ParaDoxSystem
from repro.workloads import build_spec_workload, golden_run

#: The tier amortises block binding over run length, so both gates run
#: at a steady-state size.
ITERATIONS = 400
#: Floor on the unprotected loop's speedup.  Both sides pay the timing
#: commit of every instruction, which the tier does not make cheaper;
#: measured 1.56-1.72x on a shared 2-CPU container (best of 3 taken in
#: turn, bzip2 and milc, three repeats each).
MIN_ENGINE_SPEEDUP = 1.3


def _best_of(*fns, repeats: int = 3) -> list:
    """Minimum wall-clock seconds of ``repeats`` calls to each of ``fns``,
    taken in turn so that a burst of load on a shared host slows every
    side alike."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            started = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - started)
    return best


def test_unprotected_engine_is_exact_and_faster():
    workload = build_spec_workload("bzip2", iterations=ITERATIONS)
    golden = golden_run(workload)
    results = []
    for jit in (True, False):  # the first run also compiles the blocks
        engine = BaselineSystem(jit=jit).engine(workload)
        results.append(engine.run(workload.max_instructions))
        assert (engine.jit is not None) == jit
        assert engine.state.regs == golden.state.regs
        assert engine.memory.words == golden.memory.words
    tiered, plain = results
    assert tiered.instructions == plain.instructions == golden.instructions
    assert tiered.wall_ns == plain.wall_ns

    interp_s, jit_s = _best_of(
        lambda: BaselineSystem(jit=False).run(workload),
        lambda: BaselineSystem().run(workload),
    )
    speedup = interp_s / jit_s
    assert speedup >= MIN_ENGINE_SPEEDUP, (
        f"compiled tier only {speedup:.2f}x over the interpreter in the "
        f"unprotected loop; expected >= {MIN_ENGINE_SPEEDUP}x"
    )


def test_compiled_engine_is_exact():
    workload = build_spec_workload("milc", iterations=ITERATIONS)
    tiered = ParaDoxSystem().run(workload, seed=12345)
    plain = ParaDoxSystem(jit=False).run(workload, seed=12345)
    assert tiered.wall_ns == plain.wall_ns
    assert tiered.instructions == plain.instructions
