"""Architectural state: registers + PC + retired-instruction count + output.

An :class:`ArchState` is exactly what a ParaMedic/ParaDox checkpoint
captures: everything a checker core needs to re-execute a segment, and
everything the final-state comparison checks.  Memory is *not* part of it —
memory traffic is carried by the load-store log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .registers import F_BASE, FLAGS_SLOT, RegisterCategory, RegisterFile


@dataclass
class ArchState:
    """Mutable per-core architectural state."""

    regs: RegisterFile = field(default_factory=RegisterFile)
    pc: int = 0
    #: Total retired (committed) instructions since reset.
    instret: int = 0
    #: Buffered syscall output: ``(instret, text)`` pairs.  Output becomes
    #: externally visible only once its segment has been checked.
    output: List[Tuple[int, str]] = field(default_factory=list)
    halted: bool = False

    def snapshot(self) -> "ArchState":
        """Independent copy; the checkpointing primitive."""
        return ArchState(
            regs=self.regs.snapshot(),
            pc=self.pc,
            instret=self.instret,
            output=list(self.output),
            halted=self.halted,
        )

    def restore(self, other: "ArchState") -> None:
        """Roll this state back to ``other`` in place."""
        self.regs.restore(other.regs)
        self.pc = other.pc
        self.instret = other.instret
        self.output = list(other.output)
        self.halted = other.halted

    def matches(self, other: "ArchState") -> bool:
        """Architectural equality, the checker's final-state comparison."""
        return (
            self.pc == other.pc
            and self.halted == other.halted
            and self.regs == other.regs
            and self.output == other.output
        )

    def divergence(self, other: "ArchState") -> Optional[str]:
        """Describe the first difference from ``other``, or ``None``.

        Used for error-detection diagnostics and tests.
        """
        if self.pc != other.pc:
            return f"pc {self.pc} != {other.pc}"
        if self.halted != other.halted:
            return f"halted {self.halted} != {other.halted}"
        for i, (a, b) in enumerate(zip(self.regs.x, other.regs.x)):
            if a != b:
                return f"x{i} {a:#x} != {b:#x}"
        for i, (a, b) in enumerate(zip(self.regs.f, other.regs.f)):
            if a != b:
                return f"f{i} {a:#x} != {b:#x}"
        if self.regs.flags != other.regs.flags:
            return f"flags {self.regs.flags:04b} != {other.regs.flags:04b}"
        if self.output != other.output:
            return "output streams differ"
        return None

    # -- fault-injection support -------------------------------------------------
    def flip_bit(self, category: RegisterCategory, index: int, bit: int) -> None:
        """Flip a bit of a register or the flags (by slot, see
        :meth:`RegisterFile.flip_slot`), or of the PC (``MISC``)."""
        if category is RegisterCategory.MISC:
            # A PC flip within a modest bit range: wild PCs surface as
            # InvalidPcTrap, small flips as silent wrong-path execution.
            self.pc ^= 1 << (bit % 16)
        elif category is RegisterCategory.INT:
            self.regs.flip_slot(index, bit)
        elif category is RegisterCategory.FLOAT:
            self.regs.flip_slot(F_BASE + index, bit)
        else:
            self.regs.flip_slot(FLAGS_SLOT, bit)
