"""Functional execution engine.

One :class:`Executor` advances one :class:`~repro.isa.state.ArchState`
through a program, one instruction per :meth:`Executor.step`.  The same
executor implements both core types: what distinguishes a main core from a
checker core functionally is only the :class:`DataPort` it is given —
a main core's port reads real memory and appends to the load-store log,
while a checker core's port replays the log (see
:mod:`repro.lslog.ports`).

Semantic choices (documented, RISC-V-flavoured, trap-free for the
arithmetic units so that injected faults produce *wrong values* rather than
simulator crashes):

* integer division by zero yields all-ones (quotient) / the dividend
  (remainder);
* shift amounts use only the low 6 bits;
* ``FCVTI`` saturates on overflow and maps NaN to zero.

The division, conversion and compare rules live in :mod:`repro.isa.arith`,
which the compiled tier's generated code calls too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Protocol, Tuple

from .arith import fcvti, fdiv, flags_sub, sdiv, srem
from .errors import HaltTrap, InvalidPcTrap
from .instructions import Instruction, Opcode, Syscall
from .program import Program
from .registers import MASK64, Flag, to_signed, to_unsigned
from .state import ArchState

#: A register tag: ("x"|"f"|"flags", index).
RegTag = Tuple[str, int]


class DataPort(Protocol):
    """Data-side memory interface of a core."""

    def load(self, address: int) -> int:
        """Return the 64-bit word at ``address``."""
        ...

    def store(self, address: int, value: int) -> None:
        """Write the 64-bit word ``value`` at ``address``."""
        ...


@dataclass
class StepInfo:
    """Everything the timing models need to know about one retired instruction."""

    __slots__ = (
        "instruction",
        "pc_before",
        "pc_after",
        "dest",
        "address",
        "taken",
    )

    instruction: Instruction
    pc_before: int
    pc_after: int
    dest: Optional[RegTag]
    address: Optional[int]
    taken: Optional[bool]


class Executor:
    """Step a program over an architectural state and a data port.

    The handlers close over the state, its register file and a one-slot
    port cell, never over the executor itself, so an executor holds no
    reference cycle and is freed by refcount as soon as its owner drops
    it.  Assigning :attr:`port` swaps the port every handler sees.
    """

    def __init__(self, program: Program, state: ArchState, port: DataPort) -> None:
        self.program = program
        self.state = state
        self._port_cell = [port]
        self._dispatch: Dict[Opcode, Callable[[Instruction], StepInfo]] = {}
        self._build_dispatch()
        # Per-PC decode table: the handler and the instruction are both
        # pure functions of the PC, so resolve them once instead of an
        # instruction fetch plus an enum-keyed dict probe per step.
        dispatch = self._dispatch
        self._decoded = [
            (dispatch[instruction.opcode], instruction)
            for instruction in program.instructions
        ]

    _CONDITIONS = {
        Opcode.BEQ: lambda n, z, c, v: z,
        Opcode.BNE: lambda n, z, c, v: not z,
        Opcode.BLT: lambda n, z, c, v: n != v,
        Opcode.BGE: lambda n, z, c, v: n == v,
        Opcode.BGT: lambda n, z, c, v: not z and n == v,
        Opcode.BLE: lambda n, z, c, v: z or n != v,
    }

    @property
    def port(self) -> DataPort:
        return self._port_cell[0]

    @port.setter
    def port(self, port: DataPort) -> None:
        self._port_cell[0] = port

    # -- public API --------------------------------------------------------------
    def step(self) -> StepInfo:
        """Execute one instruction; raises :class:`SimTrap` subclasses."""
        state = self.state
        if state.halted:
            raise HaltTrap("stepping a halted core")
        pc = state.pc
        if pc < 0:
            raise InvalidPcTrap(pc)
        try:
            handler, instr = self._decoded[pc]
        except IndexError:
            raise InvalidPcTrap(pc) from None
        info = handler(instr)
        state.instret += 1
        return info

    def run(self, max_instructions: int) -> int:
        """Run until HALT or the instruction budget; return instructions retired."""
        state = self.state
        step = self.step
        start = state.instret
        limit = start + max_instructions
        while not state.halted and state.instret < limit:
            step()
        return state.instret - start

    # -- dispatch construction --------------------------------------------------------
    def _build_dispatch(self) -> None:
        d = self._dispatch
        state = self.state
        regs = state.regs
        port_cell = self._port_cell

        def advance(
            instr: Instruction,
            dest: Optional[RegTag],
            address: Optional[int] = None,
            next_pc: Optional[int] = None,
            taken: Optional[bool] = None,
        ) -> StepInfo:
            pc_before = state.pc
            state.pc = pc_before + 1 if next_pc is None else next_pc
            return StepInfo(instr, pc_before, state.pc, dest, address, taken)

        def binop(fn: Callable[[int, int], int]) -> Callable[[Instruction], StepInfo]:
            def execute(instr: Instruction) -> StepInfo:
                value = fn(regs.x[instr.rs1], regs.x[instr.rs2])
                regs.write_x(instr.rd, value)
                return advance(instr, ("x", instr.rd))

            return execute

        def immop(fn: Callable[[int, int], int]) -> Callable[[Instruction], StepInfo]:
            def execute(instr: Instruction) -> StepInfo:
                value = fn(regs.x[instr.rs1], instr.imm)
                regs.write_x(instr.rd, value)
                return advance(instr, ("x", instr.rd))

            return execute

        def fbinop(fn: Callable[[float, float], float]) -> Callable[[Instruction], StepInfo]:
            def execute(instr: Instruction) -> StepInfo:
                value = fn(regs.read_f(instr.rs1), regs.read_f(instr.rs2))
                regs.write_f(instr.rd, value)
                return advance(instr, ("f", instr.rd))

            return execute

        d[Opcode.ADD] = binop(lambda a, b: a + b)
        d[Opcode.SUB] = binop(lambda a, b: a - b)
        d[Opcode.AND] = binop(lambda a, b: a & b)
        d[Opcode.ORR] = binop(lambda a, b: a | b)
        d[Opcode.EOR] = binop(lambda a, b: a ^ b)
        d[Opcode.LSL] = binop(lambda a, b: a << (b & 63))
        d[Opcode.LSR] = binop(lambda a, b: a >> (b & 63))
        d[Opcode.ASR] = binop(lambda a, b: to_unsigned(to_signed(a) >> (b & 63)))
        d[Opcode.MUL] = binop(lambda a, b: a * b)
        d[Opcode.DIV] = binop(sdiv)
        d[Opcode.REM] = binop(srem)
        d[Opcode.ADDI] = immop(lambda a, i: a + i)
        d[Opcode.SUBI] = immop(lambda a, i: a - i)
        d[Opcode.ANDI] = immop(lambda a, i: a & to_unsigned(i))
        d[Opcode.ORRI] = immop(lambda a, i: a | to_unsigned(i))
        d[Opcode.EORI] = immop(lambda a, i: a ^ to_unsigned(i))
        d[Opcode.LSLI] = immop(lambda a, i: a << (i & 63))
        d[Opcode.LSRI] = immop(lambda a, i: a >> (i & 63))
        d[Opcode.ASRI] = immop(lambda a, i: to_unsigned(to_signed(a) >> (i & 63)))
        d[Opcode.FADD] = fbinop(lambda a, b: a + b)
        d[Opcode.FSUB] = fbinop(lambda a, b: a - b)
        d[Opcode.FMUL] = fbinop(lambda a, b: a * b)
        d[Opcode.FDIV] = fbinop(fdiv)

        # -- individual handlers ---------------------------------------------------
        def exec_mov(instr: Instruction) -> StepInfo:
            regs.write_x(instr.rd, regs.x[instr.rs1])
            return advance(instr, ("x", instr.rd))

        def exec_movi(instr: Instruction) -> StepInfo:
            regs.write_x(instr.rd, to_unsigned(instr.imm))
            return advance(instr, ("x", instr.rd))

        def exec_cmp(instr: Instruction) -> StepInfo:
            regs.flags = flags_sub(regs.x[instr.rs1], regs.x[instr.rs2])
            return advance(instr, ("flags", 0))

        def exec_cmpi(instr: Instruction) -> StepInfo:
            regs.flags = flags_sub(regs.x[instr.rs1], to_unsigned(instr.imm))
            return advance(instr, ("flags", 0))

        def exec_fcmp(instr: Instruction) -> StepInfo:
            a, b = regs.read_f(instr.rs1), regs.read_f(instr.rs2)
            if a != a or b != b:  # unordered (NaN)
                regs.set_flags(False, False, True, True)
            else:
                regs.set_flags(a < b, a == b, a >= b, False)
            return advance(instr, ("flags", 0))

        def exec_fmov(instr: Instruction) -> StepInfo:
            regs.write_f_bits(instr.rd, regs.read_f_bits(instr.rs1))
            return advance(instr, ("f", instr.rd))

        def exec_fmovi(instr: Instruction) -> StepInfo:
            regs.write_f(instr.rd, instr.fimm)
            return advance(instr, ("f", instr.rd))

        def exec_fcvt(instr: Instruction) -> StepInfo:
            regs.write_f(instr.rd, float(to_signed(regs.x[instr.rs1])))
            return advance(instr, ("f", instr.rd))

        def exec_fcvti(instr: Instruction) -> StepInfo:
            regs.write_x(instr.rd, fcvti(regs.read_f(instr.rs1)))
            return advance(instr, ("x", instr.rd))

        def exec_load(instr: Instruction) -> StepInfo:
            address = (regs.x[instr.rs1] + instr.imm) & MASK64
            value = port_cell[0].load(address)
            if instr.opcode is Opcode.LDR:
                regs.write_x(instr.rd, value)
                dest: RegTag = ("x", instr.rd)
            else:
                regs.write_f_bits(instr.rd, value)
                dest = ("f", instr.rd)
            return advance(instr, dest, address=address)

        def exec_store(instr: Instruction) -> StepInfo:
            address = (regs.x[instr.rs1] + instr.imm) & MASK64
            if instr.opcode is Opcode.STR:
                value = regs.x[instr.rs2]
            else:
                value = regs.read_f_bits(instr.rs2)
            port_cell[0].store(address, value)
            return advance(instr, None, address=address)

        def exec_b(instr: Instruction) -> StepInfo:
            return advance(instr, None, next_pc=instr.target, taken=True)

        conditions = self._CONDITIONS

        def exec_cond_branch(instr: Instruction) -> StepInfo:
            n, z = regs.flag(Flag.N), regs.flag(Flag.Z)
            c, v = regs.flag(Flag.C), regs.flag(Flag.V)
            taken = conditions[instr.opcode](n, z, c, v)
            next_pc = instr.target if taken else None
            return advance(instr, None, next_pc=next_pc, taken=taken)

        def exec_cb(instr: Instruction) -> StepInfo:
            value = regs.x[instr.rs1]
            taken = (value == 0) if instr.opcode is Opcode.CBZ else (value != 0)
            next_pc = instr.target if taken else None
            return advance(instr, None, next_pc=next_pc, taken=taken)

        def exec_jal(instr: Instruction) -> StepInfo:
            regs.write_x(instr.rd, state.pc + 1)
            return advance(instr, ("x", instr.rd), next_pc=instr.target, taken=True)

        def exec_jalr(instr: Instruction) -> StepInfo:
            next_pc = regs.x[instr.rs1]
            regs.write_x(instr.rd, state.pc + 1)
            return advance(instr, ("x", instr.rd), next_pc=next_pc, taken=True)

        def exec_nop(instr: Instruction) -> StepInfo:
            return advance(instr, None)

        def exec_halt(instr: Instruction) -> StepInfo:
            state.halted = True
            return advance(instr, None)

        def exec_syscall(instr: Instruction) -> StepInfo:
            number = instr.imm
            if number == Syscall.EXIT:
                state.halted = True
            elif number == Syscall.PRINT_INT:
                state.output.append((state.instret, str(to_signed(regs.x[1]))))
            elif number == Syscall.PRINT_FLOAT:
                state.output.append((state.instret, repr(regs.read_f(1))))
            elif number == Syscall.GET_INSTRET:
                regs.write_x(1, state.instret)
            elif number == Syscall.WRITE_EXTERNAL:
                # Functionally identical to PRINT_INT (the value lands in the
                # output stream, so checkers verify it); the engine is
                # responsible for draining checks before this retires.
                state.output.append((state.instret, f"ext:{to_signed(regs.x[1])}"))
            else:
                # Unknown syscalls are NOPs; a corrupted syscall number on a
                # checker therefore diverges through its (lack of) effects.
                pass
            return advance(instr, None)

        d[Opcode.MOV] = exec_mov
        d[Opcode.MOVI] = exec_movi
        d[Opcode.CMP] = exec_cmp
        d[Opcode.CMPI] = exec_cmpi
        d[Opcode.FCMP] = exec_fcmp
        d[Opcode.FMOV] = exec_fmov
        d[Opcode.FMOVI] = exec_fmovi
        d[Opcode.FCVT] = exec_fcvt
        d[Opcode.FCVTI] = exec_fcvti
        d[Opcode.LDR] = exec_load
        d[Opcode.FLDR] = exec_load
        d[Opcode.STR] = exec_store
        d[Opcode.FSTR] = exec_store
        d[Opcode.B] = exec_b
        for op in conditions:
            d[op] = exec_cond_branch
        d[Opcode.CBZ] = exec_cb
        d[Opcode.CBNZ] = exec_cb
        d[Opcode.JAL] = exec_jal
        d[Opcode.JALR] = exec_jalr
        d[Opcode.NOP] = exec_nop
        d[Opcode.HALT] = exec_halt
        d[Opcode.SYSCALL] = exec_syscall
