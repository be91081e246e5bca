"""Transactional external I/O: verified values only ever leave the chip.

Builds a control-loop-style program that computes a setpoint, writes it
to an external device register (WRITE_EXTERNAL), and repeats — then runs
it under heavy fault injection and shows that:

* every externally flushed value matches the golden run, bit for bit,
* flushes are never duplicated by rollbacks (the write is released only
  after its own segment checks clean),
* the event timeline shows the drain-before-release protocol in action.

    python examples/transactional_io.py
"""

from repro.config import table1_config
from repro.core import ParaDoxSystem
from repro.isa import ProgramBuilder, Syscall
from repro.telemetry import render_timeline
from repro.workloads import Workload, golden_run


def control_loop(steps: int = 5, work: int = 600) -> Workload:
    b = ProgramBuilder("control-loop")
    b.movi(9, steps)
    b.movi(1, 1)
    b.label("step")
    # "Compute" a new setpoint: a xorshift-flavoured scramble.
    b.movi(4, work)
    b.label("work")
    b.lsli(2, 1, 13)
    b.eor(1, 1, 2)
    b.lsri(2, 1, 7)
    b.eor(1, 1, 2)
    b.orri(1, 1, 1)
    b.subi(4, 4, 1)
    b.cbnz(4, "work")
    # Commit the setpoint to the device.
    b.syscall(Syscall.WRITE_EXTERNAL)
    b.subi(9, 9, 1)
    b.cbnz(9, "step")
    b.halt()
    return Workload(
        "control-loop", b.build(), max_instructions=steps * work * 8 + 100
    )


def main() -> None:
    workload = control_loop()
    golden = golden_run(workload)
    golden_values = [text for _, text in golden.output]
    print(f"golden device writes: {golden_values}\n")

    config = table1_config().with_error_rate(1e-3, seed=17)
    system = ParaDoxSystem(config=config, tracing=True)
    engine = system.engine(workload, seed=17)
    result = engine.run(workload.max_instructions)

    flushed = [text for _, text in result.external_flushes]
    print(
        f"under injection: {result.faults_injected} faults, "
        f"{result.errors_detected} recoveries"
    )
    print(f"device writes:  {flushed}")
    assert flushed == golden_values, "an unverified value escaped!"
    print("every externally visible value was verified before release ✓\n")

    flush_events = engine.tracer.of_kind("engine", "external_flush")
    detections = engine.tracer.of_kind("engine", "detect")
    print(
        f"timeline: {len(flush_events)} flushes, {len(detections)} detections; "
        "excerpt around the first flush:"
    )
    ordered = sorted(engine.tracer.of_source("engine"), key=lambda e: e.time_ns)
    first_flush = next(i for i, e in enumerate(ordered) if e.kind == "external_flush")
    print(render_timeline(ordered[max(first_flush - 6, 0) : first_flush + 2]))


if __name__ == "__main__":
    main()
