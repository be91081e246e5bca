"""Compiled superblock execution tier.

The interpreter in :mod:`repro.isa.executor` pays a per-instruction
dispatch cost (decode-table probe, handler call, :class:`StepInfo`
allocation) that dominates fault-free execution time.  This package
removes it for the common case.  The program's straight-line code, up
to and including the branch that ends it, is cut into fixed **regions**
of at most :data:`MAX_BLOCK` instructions, once per program, in its
decode table.  A region is compiled into a
single specialized Python function — register indices, immediates and
folded constants burned in as literals, the source run through
``compile()`` — the first time a dispatch loop admits a block in it,
and is cached by its start PC.  Each call runs any offsets ``s..e-1``
of the region, so a block can start at any PC in it (a branch target)
and stop at any later one (a segment target or an instruction budget).
Every dispatch loop enters the tier through one call,
:meth:`SuperblockJit.run_block`: it runs the block at the current PC
for at most the loop's budget (and, in the protected engine, no further
than the instruction at which a pending detection may mature) and
returns how many instructions ran, 0 meaning "interpret this PC", so
the region format stays inside this package.  A block that reaches its
region's closing branch resolves it and leaves at the target.  Traps,
syscalls and fault-injection points are never folded into a region;
execution falls back to the interpreter there, and the two paths are
bit-identical by construction (the differential oracle in
:mod:`repro.oracle` is the merge gate for every change to this
package).

The tier emits exactly the two modes the engine's loops run, and every
compiled instruction calls the run's timing ``commit``: **record**
regions, which also record into the live log segment and stop at the
detection bound, serve the protected engine's fill loop (and the
differential oracle, so the fuzz corpus checks the code the protected
engine binds); **commit-only** regions serve the unprotected loop and
checker replay, which binds ``commit`` to a no-op and cuts each block
before the first instruction where a fault model may fire (see
:mod:`repro.cores.checker_core`).  Nothing else enters the tier:
``Executor.run`` and ``golden_run`` interpret, so the golden reference
never shares the tier's path, and neither does the oracle's raw replay.

Layering:

* :mod:`repro.jit.superblock` — region discovery (which opcodes may be
  folded, where a region must end, the decode table's ``blocks``
  mapping of block-start PCs to region start and room);
* :mod:`repro.jit.emit` — per-opcode source emission, the closing
  branch, and the bookkeeping (a timing ``commit(pc)`` per
  instruction; in record mode segment recording and the detection
  bound), with the static per-instruction facts read from the
  program's :class:`~repro.isa.decode.DecodeTable` and the
  out-of-line arithmetic (signed division, IEEE division, NZCV
  packing) called from :mod:`repro.isa.arith`, the interpreter's own
  copy;
* :mod:`repro.jit.tier` — dispatch (``run_block``) and the cache:
  region factories compiled once per process (on first dispatch, or
  for a whole program ahead of time with ``compile_regions``), keyed
  by program and record flag, and shared across runs, threads and
  forked children (they hold code only), bound once per run (they
  survive voltage moves), per-segment recorder rebinding.
"""

from .superblock import COMPILABLE_OPCODES, MAX_BLOCK, MIN_BLOCK
from .tier import JitStats, SuperblockJit, compile_regions

__all__ = [
    "COMPILABLE_OPCODES",
    "MAX_BLOCK",
    "MIN_BLOCK",
    "JitStats",
    "SuperblockJit",
    "compile_regions",
]
