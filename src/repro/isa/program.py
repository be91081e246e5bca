"""Programs and a fluent builder for generating them.

A :class:`Program` is an immutable sequence of instructions plus label
metadata.  Instruction *i* lives at text address ``4 * i``; the instruction
caches of both core types operate on these addresses.

Workload generators use :class:`ProgramBuilder`, which supports forward
label references and resolves them at :meth:`ProgramBuilder.build` time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from .instructions import Instruction, Opcode

INSTRUCTION_BYTES = 4


@dataclass(frozen=True)
class Program:
    """An assembled program."""

    instructions: Tuple[Instruction, ...]
    labels: Dict[str, int]
    name: str = "program"

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    @property
    def text_bytes(self) -> int:
        """Code footprint in bytes (drives I-cache behaviour)."""
        return len(self.instructions) * INSTRUCTION_BYTES

    def address_of(self, index: int) -> int:
        return index * INSTRUCTION_BYTES

    def listing(self) -> str:
        """Human-readable disassembly with labels."""
        by_index: Dict[int, List[str]] = {}
        for label, index in self.labels.items():
            by_index.setdefault(index, []).append(label)
        lines = []
        for i, instr in enumerate(self.instructions):
            for label in by_index.get(i, []):
                lines.append(f"{label}:")
            lines.append(f"  {i:5d}: {instr}")
        return "\n".join(lines)


class ProgramBuilder:
    """Incrementally build a :class:`Program` with label resolution.

    Every emit method returns ``self`` so code generators can chain calls.
    Branch targets may name labels defined later; they are resolved in
    :meth:`build`.
    """

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._pending: List[Tuple[int, str]] = []
        self._label_counter = 0

    # -- labels -------------------------------------------------------------
    def label(self, name: str) -> "ProgramBuilder":
        """Define ``name`` at the current position."""
        if name in self._labels:
            raise ValueError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)
        return self

    def fresh_label(self, prefix: str = "L") -> str:
        """Return a unique label name (not yet defined)."""
        self._label_counter += 1
        return f".{prefix}{self._label_counter}"

    @property
    def here(self) -> int:
        """Index of the next instruction to be emitted."""
        return len(self._instructions)

    # -- raw emission ----------------------------------------------------------
    def emit(self, instr: Instruction) -> "ProgramBuilder":
        if instr.label is not None and instr.target is None:
            self._pending.append((len(self._instructions), instr.label))
        self._instructions.append(instr)
        return self

    def op(self, opcode: Opcode, **kwargs) -> "ProgramBuilder":
        return self.emit(Instruction(opcode, **kwargs))

    # -- integer ALU -------------------------------------------------------------
    def add(self, rd: int, rs1: int, rs2: int) -> "ProgramBuilder":
        return self.op(Opcode.ADD, rd=rd, rs1=rs1, rs2=rs2)

    def sub(self, rd: int, rs1: int, rs2: int) -> "ProgramBuilder":
        return self.op(Opcode.SUB, rd=rd, rs1=rs1, rs2=rs2)

    def and_(self, rd: int, rs1: int, rs2: int) -> "ProgramBuilder":
        return self.op(Opcode.AND, rd=rd, rs1=rs1, rs2=rs2)

    def orr(self, rd: int, rs1: int, rs2: int) -> "ProgramBuilder":
        return self.op(Opcode.ORR, rd=rd, rs1=rs1, rs2=rs2)

    def eor(self, rd: int, rs1: int, rs2: int) -> "ProgramBuilder":
        return self.op(Opcode.EOR, rd=rd, rs1=rs1, rs2=rs2)

    def lsl(self, rd: int, rs1: int, rs2: int) -> "ProgramBuilder":
        return self.op(Opcode.LSL, rd=rd, rs1=rs1, rs2=rs2)

    def lsr(self, rd: int, rs1: int, rs2: int) -> "ProgramBuilder":
        return self.op(Opcode.LSR, rd=rd, rs1=rs1, rs2=rs2)

    def mul(self, rd: int, rs1: int, rs2: int) -> "ProgramBuilder":
        return self.op(Opcode.MUL, rd=rd, rs1=rs1, rs2=rs2)

    def div(self, rd: int, rs1: int, rs2: int) -> "ProgramBuilder":
        return self.op(Opcode.DIV, rd=rd, rs1=rs1, rs2=rs2)

    def rem(self, rd: int, rs1: int, rs2: int) -> "ProgramBuilder":
        return self.op(Opcode.REM, rd=rd, rs1=rs1, rs2=rs2)

    def mov(self, rd: int, rs1: int) -> "ProgramBuilder":
        return self.op(Opcode.MOV, rd=rd, rs1=rs1)

    def movi(self, rd: int, imm: int) -> "ProgramBuilder":
        return self.op(Opcode.MOVI, rd=rd, imm=imm)

    def addi(self, rd: int, rs1: int, imm: int) -> "ProgramBuilder":
        return self.op(Opcode.ADDI, rd=rd, rs1=rs1, imm=imm)

    def subi(self, rd: int, rs1: int, imm: int) -> "ProgramBuilder":
        return self.op(Opcode.SUBI, rd=rd, rs1=rs1, imm=imm)

    def andi(self, rd: int, rs1: int, imm: int) -> "ProgramBuilder":
        return self.op(Opcode.ANDI, rd=rd, rs1=rs1, imm=imm)

    def orri(self, rd: int, rs1: int, imm: int) -> "ProgramBuilder":
        return self.op(Opcode.ORRI, rd=rd, rs1=rs1, imm=imm)

    def eori(self, rd: int, rs1: int, imm: int) -> "ProgramBuilder":
        return self.op(Opcode.EORI, rd=rd, rs1=rs1, imm=imm)

    def lsli(self, rd: int, rs1: int, imm: int) -> "ProgramBuilder":
        return self.op(Opcode.LSLI, rd=rd, rs1=rs1, imm=imm)

    def lsri(self, rd: int, rs1: int, imm: int) -> "ProgramBuilder":
        return self.op(Opcode.LSRI, rd=rd, rs1=rs1, imm=imm)

    # -- compares -------------------------------------------------------------------
    def cmp(self, rs1: int, rs2: int) -> "ProgramBuilder":
        return self.op(Opcode.CMP, rs1=rs1, rs2=rs2)

    def cmpi(self, rs1: int, imm: int) -> "ProgramBuilder":
        return self.op(Opcode.CMPI, rs1=rs1, imm=imm)

    def fcmp(self, rs1: int, rs2: int) -> "ProgramBuilder":
        return self.op(Opcode.FCMP, rs1=rs1, rs2=rs2)

    # -- floating point ----------------------------------------------------------------
    def fadd(self, rd: int, rs1: int, rs2: int) -> "ProgramBuilder":
        return self.op(Opcode.FADD, rd=rd, rs1=rs1, rs2=rs2)

    def fsub(self, rd: int, rs1: int, rs2: int) -> "ProgramBuilder":
        return self.op(Opcode.FSUB, rd=rd, rs1=rs1, rs2=rs2)

    def fmul(self, rd: int, rs1: int, rs2: int) -> "ProgramBuilder":
        return self.op(Opcode.FMUL, rd=rd, rs1=rs1, rs2=rs2)

    def fdiv(self, rd: int, rs1: int, rs2: int) -> "ProgramBuilder":
        return self.op(Opcode.FDIV, rd=rd, rs1=rs1, rs2=rs2)

    def fmov(self, rd: int, rs1: int) -> "ProgramBuilder":
        return self.op(Opcode.FMOV, rd=rd, rs1=rs1)

    def fmovi(self, rd: int, value: float) -> "ProgramBuilder":
        return self.op(Opcode.FMOVI, rd=rd, fimm=value)

    def fcvt(self, fd: int, rs1: int) -> "ProgramBuilder":
        return self.op(Opcode.FCVT, rd=fd, rs1=rs1)

    def fcvti(self, rd: int, fs1: int) -> "ProgramBuilder":
        return self.op(Opcode.FCVTI, rd=rd, rs1=fs1)

    # -- memory ------------------------------------------------------------------------
    def ldr(self, rd: int, base: int, offset: int = 0) -> "ProgramBuilder":
        return self.op(Opcode.LDR, rd=rd, rs1=base, imm=offset)

    def str_(self, rs2: int, base: int, offset: int = 0) -> "ProgramBuilder":
        return self.op(Opcode.STR, rs1=base, rs2=rs2, imm=offset)

    def fldr(self, fd: int, base: int, offset: int = 0) -> "ProgramBuilder":
        return self.op(Opcode.FLDR, rd=fd, rs1=base, imm=offset)

    def fstr(self, fs2: int, base: int, offset: int = 0) -> "ProgramBuilder":
        return self.op(Opcode.FSTR, rs1=base, rs2=fs2, imm=offset)

    # -- control flow ---------------------------------------------------------------------
    def b(self, label: str) -> "ProgramBuilder":
        return self.op(Opcode.B, label=label)

    def beq(self, label: str) -> "ProgramBuilder":
        return self.op(Opcode.BEQ, label=label)

    def bne(self, label: str) -> "ProgramBuilder":
        return self.op(Opcode.BNE, label=label)

    def blt(self, label: str) -> "ProgramBuilder":
        return self.op(Opcode.BLT, label=label)

    def bge(self, label: str) -> "ProgramBuilder":
        return self.op(Opcode.BGE, label=label)

    def bgt(self, label: str) -> "ProgramBuilder":
        return self.op(Opcode.BGT, label=label)

    def ble(self, label: str) -> "ProgramBuilder":
        return self.op(Opcode.BLE, label=label)

    def cbz(self, rs1: int, label: str) -> "ProgramBuilder":
        return self.op(Opcode.CBZ, rs1=rs1, label=label)

    def cbnz(self, rs1: int, label: str) -> "ProgramBuilder":
        return self.op(Opcode.CBNZ, rs1=rs1, label=label)

    def jal(self, rd: int, label: str) -> "ProgramBuilder":
        return self.op(Opcode.JAL, rd=rd, label=label)

    def jalr(self, rs1: int, rd: int = 0) -> "ProgramBuilder":
        return self.op(Opcode.JALR, rd=rd, rs1=rs1)

    def call(self, label: str) -> "ProgramBuilder":
        """Call ``label`` with the return address in the link register."""
        from .registers import REG_LINK

        return self.jal(REG_LINK, label)

    def ret(self) -> "ProgramBuilder":
        """Return via the link register."""
        from .registers import REG_LINK

        return self.jalr(REG_LINK)

    # -- system ---------------------------------------------------------------------------
    def nop(self) -> "ProgramBuilder":
        return self.op(Opcode.NOP)

    def halt(self) -> "ProgramBuilder":
        return self.op(Opcode.HALT)

    def syscall(self, number: int) -> "ProgramBuilder":
        return self.op(Opcode.SYSCALL, imm=int(number))

    # -- finalisation -----------------------------------------------------------------------
    def build(self) -> Program:
        """Resolve labels and return the immutable program."""
        instructions = list(self._instructions)
        for index, label in self._pending:
            if label not in self._labels:
                raise ValueError(f"undefined label {label!r} used at instruction {index}")
            instructions[index] = replace(instructions[index], target=self._labels[label])
        for i, instr in enumerate(instructions):
            if instr.is_branch and instr.opcode is not Opcode.JALR and instr.target is None:
                raise ValueError(f"branch without target at instruction {i}: {instr}")
        return Program(tuple(instructions), dict(self._labels), self.name)


def concatenate(name: str, parts: Sequence[Program]) -> Program:
    """Concatenate programs, offsetting labels and branch targets."""
    builder = ProgramBuilder(name)
    offset = 0
    for part in parts:
        for label, index in part.labels.items():
            builder._labels[f"{part.name}.{label}"] = index + offset
        for instr in part.instructions:
            if instr.target is not None:
                builder.emit(replace(instr, target=instr.target + offset))
            else:
                builder.emit(instr)
        offset = builder.here
    return builder.build()
