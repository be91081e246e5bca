"""Register file model.

The ISA exposes the register categories the paper's fault injector
distinguishes ("integers, floats, flags, or miscellaneous", section V-A):

* 32 64-bit integer registers ``x0``..``x31``; ``x0`` is hard-wired to zero
  (writes are discarded), which keeps the workload generators simple.
* 16 double-precision floating-point registers ``f0``..``f15``.
* A 4-bit flags register with the usual NZCV condition bits, written by
  ``CMP``/``CMPI``/``FCMP``.
* Miscellaneous state: the program counter (modelled on
  :class:`~repro.isa.state.ArchState`, but addressed through the same
  fault-category enum).

Floating-point registers are stored as raw 64-bit IEEE-754 patterns so that
bit-level fault injection and load-store-log traffic are uniform: every
value that moves through the machine is a 64-bit integer.
"""

from __future__ import annotations

import enum
import struct
from typing import List

MASK64 = (1 << 64) - 1

NUM_INT_REGS = 32
NUM_FP_REGS = 16

#: Register *slots* number every register once: integer register ``i``
#: is slot ``i``, floating-point register ``i`` slot ``F_BASE + i``,
#: and the flags register slot :data:`FLAGS_SLOT`.
F_BASE = NUM_INT_REGS
#: Slot of the flags register.
FLAGS_SLOT = NUM_INT_REGS + NUM_FP_REGS
#: Number of register slots.
SLOT_COUNT = FLAGS_SLOT + 1

#: Conventional role of a few integer registers, used by the program
#: builder.  The architecture itself does not enforce these.
REG_ZERO = 0
REG_LINK = 30
REG_STACK = 31


class RegisterCategory(enum.Enum):
    """Fault-injection target categories from the paper (section V-A)."""

    INT = "int"
    FLOAT = "float"
    FLAGS = "flags"
    MISC = "misc"


class Flag(enum.IntEnum):
    """Bit positions within the flags register (NZCV)."""

    N = 3  # negative
    Z = 2  # zero
    C = 1  # carry / unsigned overflow
    V = 0  # signed overflow


# Canonical quiet NaN (positive sign, no payload), as RISC-V mandates for
# every arithmetic result.  The host's NaN bits must never leak into the
# architectural state: x86 propagates the *first* source operand's NaN and
# CPython 3.11's adaptive interpreter swaps machine-level operand order
# when it specializes ``BINARY_OP`` for floats, so ``nan_a + nan_b`` can
# change sign between the first and later executions of the same line of
# Python.  Canonicalizing on every float->bits conversion makes FP results
# deterministic across hosts, interpreter warm-up, and the compiled tier.
# Raw bit moves (``write_f_bits``: FMOV, FLDR) still preserve payloads.
CANONICAL_NAN = 0x7FF8000000000000


def float_to_bits(value: float) -> int:
    """Return the 64-bit IEEE-754 pattern of ``value``, NaN-canonicalized."""
    if value != value:
        return CANONICAL_NAN
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def bits_to_float(bits: int) -> float:
    """Return the double encoded by the 64-bit pattern ``bits``."""
    return struct.unpack("<d", struct.pack("<Q", bits & MASK64))[0]


def to_signed(value: int) -> int:
    """Interpret a 64-bit pattern as a signed two's-complement integer."""
    value &= MASK64
    return value - (1 << 64) if value >> 63 else value


def to_unsigned(value: int) -> int:
    """Wrap a Python integer into an unsigned 64-bit pattern."""
    return value & MASK64


def slot_bit(slot: int, bit: int) -> int:
    """Bit ``bit`` of the register at ``slot`` as a mask: modulo 64, or
    modulo 4 for the four-bit flags register."""
    return 1 << (bit % 4 if slot == FLAGS_SLOT else bit % 64)


class RegisterFile:
    """Integer, floating-point and flags registers for one core.

    Mutable by design: both main-core and checker-core execution update a
    register file in place, and checkpoints snapshot it with
    :meth:`snapshot`.  The fault models address registers by slot only:
    :meth:`read_slot` and :meth:`write_slot` reach the register an
    instruction wrote, and :meth:`flip_slot` is the one bit flip.
    """

    __slots__ = ("x", "f", "flags")

    def __init__(self) -> None:
        self.x: List[int] = [0] * NUM_INT_REGS
        self.f: List[int] = [0] * NUM_FP_REGS
        self.flags: int = 0

    # -- integer registers -------------------------------------------------
    def read_x(self, index: int) -> int:
        return self.x[index]

    def write_x(self, index: int, value: int) -> None:
        if index != REG_ZERO:
            self.x[index] = value & MASK64

    # -- floating-point registers ------------------------------------------
    def read_f(self, index: int) -> float:
        return bits_to_float(self.f[index])

    def read_f_bits(self, index: int) -> int:
        return self.f[index]

    def write_f(self, index: int, value: float) -> None:
        self.f[index] = float_to_bits(value)

    def write_f_bits(self, index: int, bits: int) -> None:
        self.f[index] = bits & MASK64

    # -- flags ---------------------------------------------------------------
    def flag(self, flag: Flag) -> bool:
        return bool((self.flags >> flag) & 1)

    def set_flags(self, n: bool, z: bool, c: bool, v: bool) -> None:
        self.flags = (
            (int(n) << Flag.N) | (int(z) << Flag.Z) | (int(c) << Flag.C) | (int(v) << Flag.V)
        )

    # -- register slots ------------------------------------------------------
    def read_slot(self, slot: int) -> int:
        """The raw bits of the register at ``slot``."""
        if slot < F_BASE:
            return self.x[slot]
        if slot < FLAGS_SLOT:
            return self.f[slot - F_BASE]
        return self.flags

    def write_slot(self, slot: int, bits: int) -> None:
        """Set the register at ``slot`` to ``bits``; writes to ``x0`` are
        discarded."""
        if slot < F_BASE:
            self.write_x(slot, bits)
        elif slot < FLAGS_SLOT:
            self.write_f_bits(slot - F_BASE, bits)
        else:
            self.flags = bits

    def flip_slot(self, slot: int, bit: int) -> None:
        """Flip bit ``bit`` (see :func:`slot_bit`) of the register at
        ``slot``, the one register-corruption path of the fault models.
        A flip of ``x0`` is discarded, like a flip that lands in
        hard-wired logic."""
        self.write_slot(slot, self.read_slot(slot) ^ slot_bit(slot, bit))

    # -- snapshots -----------------------------------------------------------
    def snapshot(self) -> "RegisterFile":
        """Return an independent copy (used for checkpoints)."""
        copy = RegisterFile.__new__(RegisterFile)
        copy.x = list(self.x)
        copy.f = list(self.f)
        copy.flags = self.flags
        return copy

    def restore(self, other: "RegisterFile") -> None:
        """Overwrite this register file with the contents of ``other``."""
        self.x[:] = other.x
        self.f[:] = other.f
        self.flags = other.flags

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegisterFile):
            return NotImplemented
        return self.x == other.x and self.f == other.f and self.flags == other.flags

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nonzero = {f"x{i}": v for i, v in enumerate(self.x) if v}
        nonzero.update({f"f{i}": bits_to_float(v) for i, v in enumerate(self.f) if v})
        return f"RegisterFile({nonzero}, flags={self.flags:04b})"
