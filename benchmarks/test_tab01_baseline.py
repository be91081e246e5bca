"""Table I: the simulated platform itself.

Table I is configuration, not results; this bench characterises the
substrate built from it — baseline IPC and simulator throughput on the
two design-space workloads — and validates that every Table I value is
what the engine actually instantiates.
"""

from repro.config import table1_config
from repro.core import BaselineSystem, ParaDoxSystem
from repro.workloads import build_bitcount, build_stream


def test_tab01_bitcount_baseline(once):
    workload = build_bitcount(values=100)
    result = once(lambda: BaselineSystem().run(workload))
    cycles = result.wall_ns / table1_config().main_core.cycle_ns
    ipc = result.instructions / cycles
    print(f"\n[Table I] bitcount baseline: {result.instructions} inst, "
          f"IPC {ipc:.2f}, wall {result.wall_ns / 1e3:.1f} us")
    assert 1.0 < ipc <= 3.0  # a 3-wide core on compute-bound code


def test_tab01_stream_baseline(once):
    workload = build_stream(elements=256, passes=2)
    result = once(lambda: BaselineSystem().run(workload))
    cycles = result.wall_ns / table1_config().main_core.cycle_ns
    ipc = result.instructions / cycles
    print(f"\n[Table I] stream baseline: {result.instructions} inst, IPC {ipc:.2f}")
    assert 0.2 < ipc <= 3.0


def test_tab01_engine_instantiates_table(once):
    workload = build_bitcount(values=10)
    engine = once(lambda: ParaDoxSystem().engine(workload))
    config = table1_config()
    assert len(engine.pool) == config.checker.count == 16
    assert engine.timing.config.rob_entries == 40
    assert engine.hierarchy.l2.config.size_bytes == 1 << 20
    assert engine.tracker.ways == 4  # L1D associativity governs buffering
