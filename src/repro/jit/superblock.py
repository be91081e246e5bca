"""Region discovery: which instructions may be compiled together.

A program's compilable instructions fall into maximal straight-line
stretches.  A stretch ends **with** a branch and **before** anything
else that is not compilable:

* a branch (direct, conditional, ``CBZ``/``CBNZ``, ``JAL``/``JALR``)
  is a stretch's last instruction: the compiled code resolves its
  target and taken flag exactly like the interpreter's handler, hands
  both to the timing commit (which drives the predictor) and leaves
  the block at the target;
* ``HALT`` and ``SYSCALL`` end a stretch before themselves — syscalls
  read ``instret`` mid-instruction, append to the output stream, and
  the external-write syscall must pass through the engine's drain
  protocol;
* nothing else: loads and stores *are* compilable because the data port
  raises (``SegmentFull``, ``UncheckedConflictStall``, memory traps)
  before any architectural mutation, and generated code flushes
  ``pc``/``instret`` immediately before every port call so a partially
  executed block leaves exactly the interpreter's state.

Each stretch is cut into fixed **regions** of at most :data:`MAX_BLOCK`
instructions, counted from the stretch's first instruction, so a branch
is only ever the last instruction of a stretch's last region.  Regions
partition the compilable PCs, so each instruction is compiled at most
once per emission mode.  A dispatch enters its region at any offset and
leaves it at any later one, so a branch into the middle of a stretch,
a segment target or an instruction budget never needs a block of its
own.  :func:`region_blocks` records, for every PC where a block may
start, its region's start and the room left to the region's end; the
decode table keeps that one mapping as ``blocks``, and
:meth:`SuperblockJit.run_block <repro.jit.tier.SuperblockJit.run_block>`
is its only reader.

Fault-injection points are excluded structurally rather than per-opcode:
the engine only builds a tier at all when no main-core injector is
attached (checker-targeted faults never see main-core execution), so no
instruction that could receive an injection is ever inside a block.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..isa.instructions import BRANCH_OPCODES, Instruction, Opcode

#: Opcodes that may appear anywhere in a compiled region; a branch may
#: only end one.
COMPILABLE_OPCODES = frozenset(Opcode) - BRANCH_OPCODES - {
    Opcode.HALT,
    Opcode.SYSCALL,
}

#: Dispatches that could run fewer instructions than this from their
#: entry PC to the end of its region (a closing branch included) are
#: not worth a call and stay interpreted (the budgets may still cut an
#: admitted one shorter).
MIN_BLOCK = 3
#: Region length cap: bounds compile time per region.
MAX_BLOCK = 64


def region_blocks(
    instructions: Sequence[Instruction],
) -> Dict[int, Tuple[int, int]]:
    """Where a block may start: ``{pc: (region start, room)}``.

    ``room`` is the number of instructions from ``pc`` to the end of its
    region.  Only PCs with at least :data:`MIN_BLOCK` of room are
    present, so a PC off every region, near a region's end or outside
    the program (negative or past the end) has no entry.
    """
    size = len(instructions)
    blocks: Dict[int, Tuple[int, int]] = {}
    # The trailing False ends the last stretch.
    compilable = [instr.opcode in COMPILABLE_OPCODES for instr in instructions]
    compilable.append(False)
    pc = 0
    while pc < size:
        if not compilable[pc]:
            pc += 1
            continue
        stretch_end = compilable.index(False, pc)
        if stretch_end < size and instructions[stretch_end].opcode in BRANCH_OPCODES:
            stretch_end += 1
        for start in range(pc, stretch_end, MAX_BLOCK):
            end = min(start + MAX_BLOCK, stretch_end)
            for at in range(start, end - MIN_BLOCK + 1):
                blocks[at] = (start, end - at)
        pc = stretch_end
    return blocks
