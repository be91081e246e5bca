"""The ISA's arithmetic rules, one copy each.

The interpreter's handlers (:mod:`repro.isa.executor`) and the code the
compiled tier generates (:mod:`repro.jit.emit`) both call these, so the
two paths share the zero-divisor conventions, the saturation and the
NZCV packing by construction.  The reference ISS
(:mod:`repro.oracle.reference`) keeps its own independent versions: it
is the model both are checked against.
"""

from __future__ import annotations

import math

from .registers import MASK64

_TWO63 = 1 << 63
_TWO64 = 1 << 64


def sdiv(a: int, b: int) -> int:
    """Truncated signed 64-bit division; all-ones quotient on b == 0."""
    if b == 0:
        return MASK64
    sa = a - _TWO64 if a >> 63 else a
    sb = b - _TWO64 if b >> 63 else b
    q = abs(sa) // abs(sb)
    return (-q if (sa < 0) != (sb < 0) else q) & MASK64


def srem(a: int, b: int) -> int:
    """Signed 64-bit remainder (sign of the dividend); a on b == 0."""
    if b == 0:
        return a
    sa = a - _TWO64 if a >> 63 else a
    sb = b - _TWO64 if b >> 63 else b
    r = abs(sa) % abs(sb)
    return (-r if sa < 0 else r) & MASK64


def fdiv(a: float, b: float) -> float:
    """IEEE 754 division: x/±0 is sign-XOR infinity, 0/0 and NaN/0 NaN."""
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return float("nan")
        return math.copysign(float("inf"), a) * math.copysign(1.0, b)
    return a / b


def fcvti(value: float) -> int:
    """FCVTI semantics: NaN to zero, saturate at the signed 64-bit ends."""
    if value != value:
        return 0
    if value >= 2.0**63:
        return _TWO63 - 1
    if value <= -(2.0**63):
        return _TWO63
    return int(value) & MASK64


def flags_sub(a: int, b: int) -> int:
    """NZCV nibble for ``a - b``; operands must already be 64-bit masked.

    N (result negative) at bit 3, Z (result zero) at 2, C (unsigned
    no-borrow) at 1, V (signed overflow) at 0, the layout of
    ``RegisterFile.flags``.
    """
    result = (a - b) & MASK64
    sa = a - _TWO64 if a >> 63 else a
    sb = b - _TWO64 if b >> 63 else b
    d = sa - sb
    return (
        ((result >> 63) << 3)
        | ((result == 0) << 2)
        | ((a >= b) << 1)
        | (not (-_TWO63 <= d < _TWO63))
    )
