"""The static per-PC decode table: one per program, shared by every layer.

Everything the timing models, the log, the fault models and the
compiled tier need to know about an instruction, apart from its runtime address and branch
outcome, is a pure function of the program and the PC.  This module
works those facts out once per :class:`~repro.isa.program.Program` and
keeps them as flat lists indexed by PC:

* the functional unit, as an index into :data:`UNITS`, and whether the
  instruction writes a register (what the log records);
* the checker-core unit latency, and its running sum over the PCs
  before each one (what a straight-line replayed span costs);
* on first use per unit, where a replayed span meets the instructions
  a fault model counts (:meth:`DecodeTable.fault_columns`);
* one :data:`MainRow` of main-core timing facts: the unit latency, the
  load and branch flags, the registers read, the register written and
  the unit name.  Registers are flat integer *slots* (``x0..x31``,
  then ``f0..f15``, then the flags register; see
  :mod:`repro.isa.registers`), so the main core's scoreboard is a list
  instead of a tuple-keyed dict, and a fault model reaches the written
  register through
  :meth:`~repro.isa.registers.RegisterFile.read_slot` and ``write_slot``;
* which PCs hold a syscall whose effect escapes the rollback domain;
* the compiled tier's regions, as one mapping rather than a list: for
  each PC where a block may start, its region's start and how many
  instructions a block entered there may run
  (:func:`repro.jit.superblock.region_blocks`).

The read and write slots are the operands each opcode reads and the
register it writes by the ISA's definition; the executor reports none
of them per step, since they are static.  The test suite checks both
against per-opcode rules of its own, and every other field of the
row, for every PC any workload or fuzz profile retires, and checks
after every retired step that the only register whose value changed
is the write slot.

Tables are cached per program object, like the compiled tier's code
cache: ``Program`` is an unhashable dataclass, so the key is its
identity, and a weakref finalizer evicts the entry when the program
dies, before the id can be reused.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import CHECKER_FU_LATENCY, MAIN_FU_LATENCY
from .instructions import (
    CONDITIONAL_FLAG_BRANCHES,
    EXTERNAL_SYSCALLS,
    FunctionalUnit,
    Instruction,
    Opcode,
    Syscall,
)
from .program import Program
from .registers import F_BASE, FLAGS_SLOT

#: Every functional unit, in the order unit indices count them.
UNITS: Tuple[FunctionalUnit, ...] = tuple(FunctionalUnit)
#: Unit -> its index in :data:`UNITS` (and in per-unit count lists).
UNIT_INDEX: Dict[FunctionalUnit, int] = {unit: i for i, unit in enumerate(UNITS)}

#: Write slot of an instruction that writes no register.
NO_SLOT = -1

#: One PC's main-core timing facts: unit latency, load flag, branch
#: flag, read slots, write slot and unit name.
MainRow = Tuple[float, bool, bool, Tuple[int, ...], int, str]


_X_X_TO_X = frozenset(
    {
        Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.ORR, Opcode.EOR,
        Opcode.LSL, Opcode.LSR, Opcode.ASR, Opcode.MUL, Opcode.DIV, Opcode.REM,
    }
)  # fmt: skip
_X_TO_X = frozenset(
    {
        Opcode.ADDI, Opcode.SUBI, Opcode.ANDI, Opcode.ORRI, Opcode.EORI,
        Opcode.LSLI, Opcode.LSRI, Opcode.ASRI, Opcode.MOV,
    }
)  # fmt: skip
_F_F_TO_F = frozenset({Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV})


def reads_write(instr: Instruction) -> Tuple[Tuple[int, ...], int]:
    """The slots ``instr`` reads, in operand order, and the slot it
    writes (:data:`NO_SLOT` for none)."""
    op = instr.opcode
    d, a, b = instr.rd, instr.rs1, instr.rs2
    f = F_BASE
    if op in _X_X_TO_X:
        return (a, b), d
    if op in _X_TO_X:
        return (a,), d
    if op is Opcode.MOVI:
        return (), d
    if op is Opcode.CMP:
        return (a, b), FLAGS_SLOT
    if op is Opcode.CMPI:
        return (a,), FLAGS_SLOT
    if op is Opcode.FCMP:
        return (f + a, f + b), FLAGS_SLOT
    if op in _F_F_TO_F:
        return (f + a, f + b), f + d
    if op is Opcode.FMOV:
        return (f + a,), f + d
    if op is Opcode.FMOVI:
        return (), f + d
    if op is Opcode.FCVT:
        return (a,), f + d
    if op is Opcode.FCVTI:
        return (f + a,), d
    if op is Opcode.LDR:
        return (a,), d
    if op is Opcode.FLDR:
        return (a,), f + d
    if op is Opcode.STR:
        return (a, b), NO_SLOT
    if op is Opcode.FSTR:
        return (a, f + b), NO_SLOT
    if op in CONDITIONAL_FLAG_BRANCHES:
        return (FLAGS_SLOT,), NO_SLOT
    if op is Opcode.CBZ or op is Opcode.CBNZ:
        return (a,), NO_SLOT
    if op is Opcode.JAL:
        return (), d
    if op is Opcode.JALR:
        return (a,), d
    if op is Opcode.SYSCALL:
        # Every syscall takes its argument in x1; GET_INSTRET writes it.
        return (1,), 1 if instr.imm == Syscall.GET_INSTRET else NO_SLOT
    if op is Opcode.B or op is Opcode.NOP or op is Opcode.HALT:
        return (), NO_SLOT
    raise ValueError(f"no decode rule for {op}")


class DecodeTable:
    """Per-PC static facts of one program; see the module docstring.

    Every column is a list indexed by PC.  :attr:`main_rows` holds one
    :data:`MainRow` per PC so
    :meth:`MainCoreTiming.commit <repro.cores.main_core.MainCoreTiming.commit>`
    pays one index for all of its facts, and :attr:`external_pcs` is the set
    of PCs the engine must drain checks before.  :attr:`blocks` maps
    each PC where a compiled block may start to ``(region start,
    room)``; :meth:`SuperblockJit.run_block
    <repro.jit.tier.SuperblockJit.run_block>` is its only reader.
    :attr:`checker_cycles_before` has one more entry than the program
    has instructions: entry ``pc`` is the checker latency of PCs
    ``0 .. pc - 1``, so a straight-line span ``pc .. pc + n - 1`` costs
    ``checker_cycles_before[pc + n] - checker_cycles_before[pc]``
    cycles, exactly, because every latency is an integer.
    """

    __slots__ = (
        "instructions",
        "unit_index",
        "checker_latency",
        "checker_cycles_before",
        "writes_register",
        "main_rows",
        "external_pcs",
        "blocks",
        "_fault_columns",
    )

    def __init__(self, program: Program) -> None:
        instructions = program.instructions
        self.instructions = instructions
        self.unit_index: List[int] = []
        self.checker_latency: List[float] = []
        self.checker_cycles_before: List[int] = [0]
        self.writes_register: List[bool] = []
        self.main_rows: List[MainRow] = []
        cycles = 0
        for instr in instructions:
            unit = instr.opcode.unit
            reads, write = reads_write(instr)
            latency = CHECKER_FU_LATENCY[unit.value]
            cycles += latency
            self.unit_index.append(UNIT_INDEX[unit])
            self.checker_latency.append(float(latency))
            self.checker_cycles_before.append(cycles)
            self.writes_register.append(write != NO_SLOT)
            self.main_rows.append(
                (
                    float(MAIN_FU_LATENCY[unit.value]),
                    instr.is_load,
                    instr.is_branch,
                    reads,
                    write,
                    unit.value,
                )
            )
        self.external_pcs = frozenset(
            pc
            for pc, instr in enumerate(instructions)
            if instr.opcode is Opcode.SYSCALL and instr.imm in EXTERNAL_SYSCALLS
        )
        # Imported here: repro.jit builds on this package.
        from ..jit.superblock import region_blocks

        self.blocks: Dict[int, Tuple[int, int]] = region_blocks(instructions)
        self._fault_columns: Dict[
            Optional[int], Tuple[Sequence[int], Sequence[int]]
        ] = {}

    def fault_columns(self, unit: Optional[int]) -> Tuple[Sequence[int], Sequence[int]]:
        """Where straight-line code meets the operations a fault model
        counts: every instruction for ``unit`` None, else the
        register-writing instructions of the unit with that index.

        Returns ``(before, pcs)``: ``before[pc]`` counts those operations
        at PCs ``0 .. pc - 1`` (one entry more than the program has
        instructions) and ``pcs`` lists their PCs in order.  So the span
        ``pc .. pc + n - 1`` holds ``before[pc + n] - before[pc]`` of
        them, and the ``k``-th one at or after ``pc`` (``k`` from 0) sits
        at ``pcs[before[pc] + k]`` when that index exists.  Built on
        first use per unit.
        """
        columns = self._fault_columns.get(unit)
        if columns is None:
            size = len(self.instructions)
            if unit is None:
                columns = (range(size + 1), range(size))
            else:
                before: List[int] = [0]
                pcs: List[int] = []
                for pc, (index, writes) in enumerate(
                    zip(self.unit_index, self.writes_register)
                ):
                    if writes and index == unit:
                        pcs.append(pc)
                    before.append(len(pcs))
                columns = (before, pcs)
            self._fault_columns[unit] = columns
        return columns


_TABLES: Dict[int, DecodeTable] = {}


def decode_table(program: Program) -> DecodeTable:
    """The program's decode table, built on first use and then shared."""
    key = id(program)
    table: Optional[DecodeTable] = _TABLES.get(key)
    if table is None:
        table = DecodeTable(program)
        _TABLES[key] = table
        weakref.finalize(program, _TABLES.pop, key, None)
    return table
