"""Reference-ISS cross-checks and the condition-code bignum oracle.

The first half proves the golden model agrees with :func:`golden_run`
(the production ``Executor`` over a plain memory image) on every
built-in workload.  The second half cross-checks the NZCV bits of
:func:`repro.isa.arith.flags_sub` (the one copy the interpreter and the
compiled tier share) and all six ``_CONDITIONS`` lambdas against a
Python-bignum model that
is formulated purely in terms of signed/unsigned comparisons — no
two's-complement bit fiddling — over boundary operands and hypothesis
pairs, plus the FCMP unordered-NaN encoding against every conditional
branch.  The last part checks the other shared rules (``sdiv``,
``srem``, ``fdiv``, ``fcvti``) against the reference ISS's own handlers
over boundary and hypothesis operands.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import WORKLOAD_BUILDERS
from repro.isa import (
    ArchState,
    Executor,
    MASK64,
    MemoryImage,
    Opcode,
    ProgramBuilder,
    float_to_bits,
    to_signed,
)
from repro.isa.arith import fcvti, fdiv, flags_sub, sdiv, srem
from repro.oracle import ReferenceISS
from repro.workloads.base import golden_run

#: Operands on the corner cases of 64-bit two's-complement arithmetic.
BOUNDARY = [
    0,
    1,
    2,
    (1 << 63) - 1,
    1 << 63,
    (1 << 63) + 1,
    MASK64 - 1,
    MASK64,
    1 << 62,
    0x5555_5555_5555_5555,
]

WORD64 = st.integers(min_value=0, max_value=MASK64)


def assert_reference_matches(ref: ReferenceISS, state: ArchState, memory) -> None:
    assert ref.halted == state.halted
    assert ref.pc == state.pc
    assert ref.instret == state.instret
    assert ref.x == state.regs.x
    assert ref.f == state.regs.f
    assert ref.flags == state.regs.flags
    assert ref.output == state.output
    mine = {a: v for a, v in memory.words.items() if v}
    assert ref.memory_words() == mine


class TestReferenceAgainstGoldenRun:
    @pytest.mark.parametrize("name", sorted(WORKLOAD_BUILDERS))
    def test_full_state_agreement(self, name):
        workload = WORKLOAD_BUILDERS[name](0.5)
        golden = golden_run(workload)
        ref = ReferenceISS(workload.program, initial_words=workload.initial_words)
        retired = ref.run(workload.max_instructions)
        assert retired == golden.instructions
        assert_reference_matches(ref, golden.state, golden.memory)

    def test_reference_is_deterministic(self):
        workload = WORKLOAD_BUILDERS["crc32"](0.5)
        runs = []
        for _ in range(2):
            ref = ReferenceISS(workload.program, initial_words=workload.initial_words)
            ref.run(workload.max_instructions)
            runs.append((list(ref.x), list(ref.f), ref.flags, ref.output))
        assert runs[0] == runs[1]


def nzcv(a: int, b: int):
    """The N, Z, C and V bits of ``flags_sub(a, b)``, in that order."""
    flags = flags_sub(a, b)
    return tuple(bool(flags >> bit & 1) for bit in (3, 2, 1, 0))


def bignum_flags(a: int, b: int):
    """NZCV of ``a - b`` stated as pure integer comparisons."""
    sa, sb = to_signed(a), to_signed(b)
    diff = sa - sb
    n = to_signed((a - b) & MASK64) < 0
    z = a == b
    c = a >= b  # no unsigned borrow
    v = not (-(1 << 63) <= diff < (1 << 63))
    return n, z, c, v


#: Signed-comparison truth each conditional branch must encode.
SIGNED_PREDICATES = {
    Opcode.BEQ: lambda sa, sb: sa == sb,
    Opcode.BNE: lambda sa, sb: sa != sb,
    Opcode.BLT: lambda sa, sb: sa < sb,
    Opcode.BGE: lambda sa, sb: sa >= sb,
    Opcode.BGT: lambda sa, sb: sa > sb,
    Opcode.BLE: lambda sa, sb: sa <= sb,
}


class TestConditionCodeOracle:
    @pytest.mark.parametrize("a", BOUNDARY)
    @pytest.mark.parametrize("b", BOUNDARY)
    def test_flags_boundary_operands(self, a, b):
        assert nzcv(a, b) == bignum_flags(a, b)

    @settings(max_examples=300, deadline=None)
    @given(a=WORD64, b=WORD64)
    def test_flags_random_operands(self, a, b):
        assert nzcv(a, b) == bignum_flags(a, b)

    @pytest.mark.parametrize("a", BOUNDARY)
    @pytest.mark.parametrize("b", BOUNDARY)
    def test_conditions_encode_signed_comparison(self, a, b):
        n, z, c, v = nzcv(a, b)
        sa, sb = to_signed(a), to_signed(b)
        for opcode, predicate in SIGNED_PREDICATES.items():
            taken = Executor._CONDITIONS[opcode](n, z, c, v)
            assert taken == predicate(sa, sb), (opcode, a, b)

    @settings(max_examples=300, deadline=None)
    @given(a=WORD64, b=WORD64)
    def test_conditions_random_operands(self, a, b):
        n, z, c, v = nzcv(a, b)
        sa, sb = to_signed(a), to_signed(b)
        for opcode, predicate in SIGNED_PREDICATES.items():
            assert Executor._CONDITIONS[opcode](n, z, c, v) == predicate(sa, sb)


def _run_fcmp_branch(a: float, b: float, branch: str):
    """Execute fcmp a, b; <branch> on executor and reference; return taken."""
    builder = ProgramBuilder(name=f"fcmp-{branch}")
    builder.fmovi(0, a).fmovi(1, b).fcmp(0, 1)
    getattr(builder, branch)("taken")
    builder.movi(2, 1).halt()
    builder.label("taken").movi(2, 2).halt()
    program = builder.build()

    state = ArchState()
    Executor(program, state, MemoryImage()).run(100)
    ref = ReferenceISS(program)
    ref.run(100)
    assert ref.x[2] == state.regs.x[2], (a, b, branch)
    assert ref.flags == state.regs.flags, (a, b, branch)
    return state.regs.x[2] == 2, state.regs.flags


NAN = float("nan")


class TestFcmpUnordered:
    @pytest.mark.parametrize(
        "a,b",
        [(NAN, 1.0), (1.0, NAN), (NAN, NAN), (NAN, float("inf"))],
    )
    def test_unordered_flag_encoding(self, a, b):
        # Unordered comparisons set N=0 Z=0 C=1 V=1 (0b0011).
        _, flags = _run_fcmp_branch(a, b, "beq")
        assert flags == 0b0011

    @pytest.mark.parametrize(
        "branch,expect_taken",
        [
            ("beq", False),
            ("bne", True),
            ("blt", True),
            ("bge", False),
            ("bgt", False),
            ("ble", True),
        ],
    )
    def test_unordered_behaves_as_less_than(self, branch, expect_taken):
        # With N=0 V=1 the branch matrix resolves unordered exactly like
        # "less than" — the intentional semantic documented in
        # docs/ORACLE.md.
        taken, _ = _run_fcmp_branch(NAN, 1.0, branch)
        assert taken == expect_taken

    @pytest.mark.parametrize(
        "a,b,relation",
        [(1.0, 2.0, "lt"), (2.0, 1.0, "gt"), (1.5, 1.5, "eq"), (-0.0, 0.0, "eq")],
    )
    def test_ordered_comparisons_unaffected(self, a, b, relation):
        taken_lt, _ = _run_fcmp_branch(a, b, "blt")
        taken_eq, _ = _run_fcmp_branch(a, b, "beq")
        taken_gt, _ = _run_fcmp_branch(a, b, "bgt")
        assert taken_lt == (relation == "lt")
        assert taken_eq == (relation == "eq")
        assert taken_gt == (relation == "gt")


class TestFdivIeeeZeroSemantics:
    """Signed-zero division: the bug class the fuzzer first caught."""

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (1.0, 0.0, float("inf")),
            (1.0, -0.0, float("-inf")),
            (-1.0, 0.0, float("-inf")),
            (-1.0, -0.0, float("inf")),
            (float("inf"), -0.0, float("-inf")),
        ],
    )
    def test_directed_infinities(self, a, b, expected):
        builder = ProgramBuilder(name="fdiv")
        builder.fmovi(0, a).fmovi(1, b).fdiv(2, 0, 1).halt()
        program = builder.build()
        state = ArchState()
        Executor(program, state, MemoryImage()).run(10)
        assert state.regs.read_f(2) == expected
        ref = ReferenceISS(program)
        ref.run(10)
        assert ref.f[2] == state.regs.f[2]

    @pytest.mark.parametrize("a", [0.0, -0.0, NAN])
    @pytest.mark.parametrize("b", [0.0, -0.0])
    def test_zero_or_nan_over_zero_is_nan(self, a, b):
        builder = ProgramBuilder(name="fdiv-nan")
        builder.fmovi(0, a).fmovi(1, b).fdiv(2, 0, 1).halt()
        program = builder.build()
        state = ArchState()
        Executor(program, state, MemoryImage()).run(10)
        assert math.isnan(state.regs.read_f(2))
        ref = ReferenceISS(program)
        ref.run(10)
        assert ref.f[2] == state.regs.f[2]


#: Floats on the corners FDIV and FCVTI treat specially: signed zeros,
#: infinities, NaN, the signed 64-bit saturation edges and the last
#: values inside them, and the smallest subnormal.
SPECIAL_FLOATS = [
    0.0,
    -0.0,
    0.5,
    -2.9,
    1e300,
    -1e300,
    5e-324,
    float("inf"),
    float("-inf"),
    NAN,
    2.0**63,
    -(2.0**63),
    math.nextafter(2.0**63, 0.0),
    math.nextafter(-(2.0**63), 0.0),
]

FLOAT64 = st.floats(allow_nan=True, allow_infinity=True)


def reference_step(emit, x=(0, 0), f=(0.0, 0.0)) -> ReferenceISS:
    """Step the one instruction ``emit`` adds to a builder through the
    reference ISS, with x1, x2 and f1, f2 preset to ``x`` and ``f``."""
    builder = ProgramBuilder(name="arith")
    emit(builder)
    ref = ReferenceISS(builder.halt().build())
    ref.x[1:3] = x
    ref.f[1:3] = [float_to_bits(value) for value in f]
    ref.step()
    return ref


def reference_int(op: str, a: int, b: int) -> int:
    return reference_step(lambda p: getattr(p, op)(3, 1, 2), x=(a, b)).x[3]


def reference_fdiv(a: float, b: float) -> int:
    return reference_step(lambda p: p.fdiv(3, 1, 2), f=(a, b)).f[3]


def reference_fcvti(value: float) -> int:
    return reference_step(lambda p: p.fcvti(3, 1), f=(value, 0.0)).x[3]


class TestSharedArithmetic:
    """The one copy of each arithmetic rule in :mod:`repro.isa.arith`,
    which the interpreter and the compiled tier both call, against the
    reference ISS's independent versions.  Float results compare as the
    registers hold them: NaN canonicalised."""

    def test_sdiv_srem_boundary_operands(self):
        for a in BOUNDARY:
            for b in BOUNDARY:
                assert sdiv(a, b) == reference_int("div", a, b), (a, b)
                assert srem(a, b) == reference_int("rem", a, b), (a, b)

    @settings(max_examples=300, deadline=None)
    @given(
        a=WORD64,
        b=st.one_of(WORD64, st.integers(-3, 3).map(lambda v: v & MASK64)),
    )
    def test_sdiv_srem_random_operands(self, a, b):
        assert sdiv(a, b) == reference_int("div", a, b)
        assert srem(a, b) == reference_int("rem", a, b)

    def test_fdiv_special_operands(self):
        for a in SPECIAL_FLOATS:
            for b in SPECIAL_FLOATS:
                assert float_to_bits(fdiv(a, b)) == reference_fdiv(a, b), (a, b)

    @settings(max_examples=300, deadline=None)
    @given(a=FLOAT64, b=st.one_of(FLOAT64, st.sampled_from([0.0, -0.0])))
    def test_fdiv_random_operands(self, a, b):
        assert float_to_bits(fdiv(a, b)) == reference_fdiv(a, b)

    def test_fcvti_special_values(self):
        for value in SPECIAL_FLOATS:
            assert fcvti(value) == reference_fcvti(value), value

    @settings(max_examples=300, deadline=None)
    @given(value=FLOAT64)
    def test_fcvti_random_values(self, value):
        assert fcvti(value) == reference_fcvti(value)
