"""Coverage analysis: what ParaDox catches, and the one case it can't.

Two demonstrations on real machinery (memory is outside them: the paper
assumes SECDED-protected memory, and redundant execution covers compute):

1. Any one-sided or mismatched corruption of compute is detected.
2. Only an *identical* corruption of main and checker at the same dynamic
   instruction slips through — and the analytic model prices that
   coincidence against the margined baseline's residual error rate.

    python examples/coverage_analysis.py
"""

from repro.coverage import (
    Corruption,
    coverage_sweep,
    inject_common_mode,
    inject_independent,
)
from repro.faults import VoltageErrorModel
from repro.isa import assemble

PROGRAM = assemble("""
    movi x1, 123
    movi x2, 45
    mul x3, x1, x2
    movi x5, 64
    str x3, [x5]
    ldr x4, [x5]
    add x6, x4, x1
    str x6, [x5, 8]
    halt
""")


def demo_detection() -> None:
    print("1) compute corruption -> redundant execution")
    one_sided = inject_independent(PROGRAM, Corruption(instruction_index=2))
    print(f"   main-only corruption: detected via {one_sided.channel.value}")
    mismatched = inject_independent(
        PROGRAM,
        Corruption(instruction_index=2, bit=0),
        Corruption(instruction_index=2, bit=7),
    )
    print(f"   mismatched corruption: detected via {mismatched.channel.value}")


def demo_common_mode() -> None:
    print("\n2) the blind spot: identical common-mode corruption")
    result = inject_common_mode(PROGRAM, Corruption(instruction_index=2))
    print(f"   identical flip on both sides: detected = {result.detected}")
    print("   ...which is why the analytic model charges for coincidences:")
    model = VoltageErrorModel.itanium_9560()
    for point in coverage_sweep(model, [1.00, 0.96, 0.93]):
        print(
            f"   V={point.voltage:.2f}: main errs {point.main_error_rate:.1e}/inst, "
            f"SDC {point.sdc_rate_paradox:.1e} vs margined "
            f"{point.sdc_rate_margined:.1e} -> {point.advantage:.0e}x safer"
        )


if __name__ == "__main__":
    demo_detection()
    demo_common_mode()
