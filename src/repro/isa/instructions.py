"""Instruction set definition.

A small 64-bit load/store RISC ISA, close in spirit to the ARMv8 subset the
paper simulates under gem5: flag-setting compares with conditional
branches, separate integer and floating-point register files, and
word-granularity loads and stores.

Each opcode carries a :class:`FunctionalUnit` class.  The timing models use
it to pick execution latencies, and the paper's *combinational fault*
model uses it to corrupt only instructions that pass through a chosen
(defective) functional unit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple


class FunctionalUnit(enum.Enum):
    """Execution resource classes, used by timing and fault models."""

    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    FP_ALU = "fp_alu"
    FP_MUL = "fp_mul"
    FP_DIV = "fp_div"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    SYSTEM = "system"


class Opcode(enum.Enum):
    """All opcodes, with their functional-unit class."""

    # integer ALU, register-register
    ADD = ("add", FunctionalUnit.INT_ALU)
    SUB = ("sub", FunctionalUnit.INT_ALU)
    AND = ("and", FunctionalUnit.INT_ALU)
    ORR = ("orr", FunctionalUnit.INT_ALU)
    EOR = ("eor", FunctionalUnit.INT_ALU)
    LSL = ("lsl", FunctionalUnit.INT_ALU)
    LSR = ("lsr", FunctionalUnit.INT_ALU)
    ASR = ("asr", FunctionalUnit.INT_ALU)
    MUL = ("mul", FunctionalUnit.INT_MUL)
    DIV = ("div", FunctionalUnit.INT_DIV)
    REM = ("rem", FunctionalUnit.INT_DIV)
    MOV = ("mov", FunctionalUnit.INT_ALU)
    # integer ALU, register-immediate
    ADDI = ("addi", FunctionalUnit.INT_ALU)
    SUBI = ("subi", FunctionalUnit.INT_ALU)
    ANDI = ("andi", FunctionalUnit.INT_ALU)
    ORRI = ("orri", FunctionalUnit.INT_ALU)
    EORI = ("eori", FunctionalUnit.INT_ALU)
    LSLI = ("lsli", FunctionalUnit.INT_ALU)
    LSRI = ("lsri", FunctionalUnit.INT_ALU)
    ASRI = ("asri", FunctionalUnit.INT_ALU)
    MOVI = ("movi", FunctionalUnit.INT_ALU)
    # compares (set NZCV)
    CMP = ("cmp", FunctionalUnit.INT_ALU)
    CMPI = ("cmpi", FunctionalUnit.INT_ALU)
    FCMP = ("fcmp", FunctionalUnit.FP_ALU)
    # floating point
    FADD = ("fadd", FunctionalUnit.FP_ALU)
    FSUB = ("fsub", FunctionalUnit.FP_ALU)
    FMUL = ("fmul", FunctionalUnit.FP_MUL)
    FDIV = ("fdiv", FunctionalUnit.FP_DIV)
    FMOV = ("fmov", FunctionalUnit.FP_ALU)
    FMOVI = ("fmovi", FunctionalUnit.FP_ALU)
    FCVT = ("fcvt", FunctionalUnit.FP_ALU)  # int reg -> fp reg
    FCVTI = ("fcvti", FunctionalUnit.FP_ALU)  # fp reg -> int reg (truncate)
    # memory
    LDR = ("ldr", FunctionalUnit.LOAD)
    STR = ("str", FunctionalUnit.STORE)
    FLDR = ("fldr", FunctionalUnit.LOAD)
    FSTR = ("fstr", FunctionalUnit.STORE)
    # control flow
    B = ("b", FunctionalUnit.BRANCH)
    BEQ = ("beq", FunctionalUnit.BRANCH)
    BNE = ("bne", FunctionalUnit.BRANCH)
    BLT = ("blt", FunctionalUnit.BRANCH)
    BGE = ("bge", FunctionalUnit.BRANCH)
    BGT = ("bgt", FunctionalUnit.BRANCH)
    BLE = ("ble", FunctionalUnit.BRANCH)
    CBZ = ("cbz", FunctionalUnit.BRANCH)
    CBNZ = ("cbnz", FunctionalUnit.BRANCH)
    JAL = ("jal", FunctionalUnit.BRANCH)  # call: link in rd, jump to target
    JALR = ("jalr", FunctionalUnit.BRANCH)  # return / indirect: jump to rs1
    # system
    NOP = ("nop", FunctionalUnit.INT_ALU)
    HALT = ("halt", FunctionalUnit.SYSTEM)
    SYSCALL = ("syscall", FunctionalUnit.SYSTEM)

    def __init__(self, mnemonic: str, unit: FunctionalUnit) -> None:
        self.mnemonic = mnemonic
        self.unit = unit


#: Conditional branches that read the flags register.
CONDITIONAL_FLAG_BRANCHES = frozenset(
    {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BGT, Opcode.BLE}
)
#: Conditional branches that test a register directly.
CONDITIONAL_REG_BRANCHES = frozenset({Opcode.CBZ, Opcode.CBNZ})
#: All control-flow opcodes.
BRANCH_OPCODES = (
    CONDITIONAL_FLAG_BRANCHES
    | CONDITIONAL_REG_BRANCHES
    | frozenset({Opcode.B, Opcode.JAL, Opcode.JALR})
)
#: Opcodes whose destination is a floating-point register.
FP_DEST_OPCODES = frozenset(
    {
        Opcode.FADD,
        Opcode.FSUB,
        Opcode.FMUL,
        Opcode.FDIV,
        Opcode.FMOV,
        Opcode.FMOVI,
        Opcode.FCVT,
        Opcode.FLDR,
    }
)
#: Opcodes that write the flags register instead of a data register.
FLAG_DEST_OPCODES = frozenset({Opcode.CMP, Opcode.CMPI, Opcode.FCMP})
#: Memory opcodes.
MEMORY_OPCODES = frozenset({Opcode.LDR, Opcode.STR, Opcode.FLDR, Opcode.FSTR})


class Syscall(enum.IntEnum):
    """Syscall numbers.

    The paper treats syscalls "as standard operations that can be rolled
    back, unless they update external state" (section II-B).  ``EXIT`` and
    the print syscalls update external state only when their containing
    segment has been checked; the engine buffers their output until then.
    """

    EXIT = 0
    PRINT_INT = 1
    PRINT_FLOAT = 2
    GET_INSTRET = 3  # read retired-instruction count into x1 (non-external)
    #: Writes x1 to the outside world (device register, network...).
    #: External state cannot be rolled back, so the engine verifies all
    #: computation up to this instruction before letting it execute
    #: ("stores that are uncacheable must be checked before they can
    #: proceed", section II-B).
    WRITE_EXTERNAL = 4


#: Syscalls whose effects escape the rollback domain.
EXTERNAL_SYSCALLS = frozenset({Syscall.WRITE_EXTERNAL})


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    ``target`` holds a resolved instruction index for direct branches; the
    assembler fills it in from labels.  ``label`` is kept for display.
    """

    opcode: Opcode
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    fimm: float = 0.0
    target: Optional[int] = None
    label: Optional[str] = field(default=None, compare=False)

    @property
    def unit(self) -> FunctionalUnit:
        return self.opcode.unit

    @property
    def is_branch(self) -> bool:
        return self.opcode in BRANCH_OPCODES

    @property
    def is_memory(self) -> bool:
        return self.opcode in MEMORY_OPCODES

    @property
    def is_load(self) -> bool:
        return self.opcode in (Opcode.LDR, Opcode.FLDR)

    @property
    def is_store(self) -> bool:
        return self.opcode in (Opcode.STR, Opcode.FSTR)

    def destination(self) -> Tuple[Optional[str], int]:
        """Return ``(register file, index)`` written by this instruction.

        The file is ``"x"``, ``"f"``, ``"flags"`` or ``None`` when the
        instruction writes no register (stores, plain branches, NOP...).
        Used by the combinational fault model, which corrupts "the
        registers that have been modified by the concerned instructions".
        """
        op = self.opcode
        if op in FLAG_DEST_OPCODES:
            return ("flags", 0)
        if op in FP_DEST_OPCODES:
            return ("f", self.rd)
        if op in (Opcode.STR, Opcode.FSTR, Opcode.B, Opcode.NOP, Opcode.HALT):
            return (None, 0)
        if op in CONDITIONAL_FLAG_BRANCHES or op in CONDITIONAL_REG_BRANCHES:
            return (None, 0)
        if op is Opcode.SYSCALL:
            return (None, 0)
        if op is Opcode.FCVTI:
            return ("x", self.rd)
        if op in (Opcode.JAL, Opcode.JALR):
            return ("x", self.rd)
        return ("x", self.rd)

    def __str__(self) -> str:
        parts = [self.opcode.mnemonic]
        if self.label is not None:
            parts.append(self.label)
        elif self.target is not None:
            parts.append(f"@{self.target}")
        return " ".join(parts)
