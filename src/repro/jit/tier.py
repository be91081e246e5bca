"""Dispatch into the tier, and the region cache: compile once per
process, bind once per run.

Two layers of caching, keyed by region start (see
:mod:`repro.jit.superblock`):

* ``_code`` — the compiled factories, shared by every tier over the
  same program object and emission mode (``_SHARED_CODE``, keyed by
  the program's identity and the ``record`` flag).  A factory is code
  only: it holds nothing a run writes, and programs are immutable, so
  this layer is never invalidated.
* ``_active`` — bound region functions: the factory executed against
  the run's live context (state, register lists, port methods, timing
  ``commit``).  None of these depends on the supply
  voltage — a DVFS move re-thresholds fault maps and re-times the core
  through the engine's clock anchors, not through anything a region
  holds — so a bound region lives for the whole run and each region is
  bound at most once.

:meth:`SuperblockJit.run_block` is the one way into the tier: every
dispatch loop hands it the instruction budget it has left (the fill
loop adds its detection bound), and it looks the PC up in the decode
table's ``blocks``, cuts the region to that budget, binds it on a miss
and counts the dispatch.  Bound regions come only from
:meth:`SuperblockJit.runner`, which ``run_block`` calls on a miss.
Code comes from the same call, the first time a region runs, or ahead
of any run from :func:`compile_regions`, which compiles a whole program
for the protected engine's fill loop and checker replay: a campaign
parent does that once per workload, so its forked cells only bind.  Both paths compile through
one helper.

Segment turnover costs no cache traffic either: record-mode regions
take the recorder as a call argument, so
:meth:`SuperblockJit.note_segment` just swaps the recorder
``run_block`` passes on the next dispatch.  :class:`JitStats` counts
binds and rebinds so tests and telemetry can see the protocol working.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..isa import arith
from ..isa.decode import decode_table
from ..isa.registers import bits_to_float, float_to_bits
from .emit import emit_factory_source

#: A compiled region's ``__factory__``: called with a run's context, it
#: returns the bound region function.
Factory = Callable[[Dict[str, Any]], Callable[..., int]]

# Region factories shared across tiers over the same program object and
# emission mode, keyed by region start.  Program is an eq-compared
# (unhashable) dataclass, so the key is its identity; a weakref
# finalizer evicts the entry when the program dies, before the id can
# be reused.  Sharing is safe across runs and threads because programs
# are immutable and a factory holds no state: everything a run touches
# is bound from that run's context.
_SHARED_CODE: Dict[Tuple[int, bool], Dict[int, Factory]] = {}


def _shared_code_for(program, record: bool) -> Dict[int, Factory]:
    key = (id(program), record)
    cache = _SHARED_CODE.get(key)
    if cache is None:
        cache = {}
        _SHARED_CODE[key] = cache
        weakref.finalize(program, _SHARED_CODE.pop, key, None)
    return cache


def _compile_region(table, start: int, record: bool) -> Factory:
    """Compile the region at ``start`` of ``table``'s program."""
    source = emit_factory_source(table, start, table.blocks[start][1], record=record)
    namespace: Dict[str, Any] = {}
    exec(compile(source, f"<region pc={start}>", "exec"), namespace)
    # The factory's globals are this namespace: take it out so the
    # two do not form a reference cycle.
    factory = namespace.pop("__block__")
    del namespace["__factory__"]
    return factory


def compile_regions(program) -> None:
    """Compile every region of ``program`` in both modes ahead of its
    first dispatch: record for the protected engine's fill loop,
    commit-only for its checker replay (and the unprotected loop).

    Tiers over the program then bind these factories and compile
    nothing, as do processes forked after this call: a campaign parent
    prepares each workload once and every cell inherits it.
    """
    table = decode_table(program)
    for record in (True, False):
        code = _shared_code_for(program, record)
        for start, _ in table.blocks.values():
            if start not in code:
                code[start] = _compile_region(table, start, record)


@dataclass
class JitStats:
    """Counters for the tier's caches and dispatch volume.

    ``blocks_compiled`` counts regions this tier compiled (not found in
    the shared cache), ``activations`` regions it bound, ``dispatches``
    region calls and ``instructions`` the instructions they ran.
    ``voltage_invalidations`` is always 0: bound regions survive voltage
    moves.  It stays in the record because telemetry and the benchmark
    ledger report it.
    """

    blocks_compiled: int = 0
    activations: int = 0
    dispatches: int = 0
    instructions: int = 0
    segment_rebinds: int = 0
    voltage_invalidations: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "blocks_compiled": self.blocks_compiled,
            "activations": self.activations,
            "dispatches": self.dispatches,
            "instructions": self.instructions,
            "segment_rebinds": self.segment_rebinds,
            "voltage_invalidations": self.voltage_invalidations,
        }


class SuperblockJit:
    """Per-run compiled tier over one program/state/port triple.

    Bound regions belong to one run, because they hold that run's state,
    port and timing model.  Compiled code is shared across runs: every
    tier over the same program object and emission mode draws on one
    ``_SHARED_CODE`` cache, so a region is compiled once per process.

    A dispatch loop calls :meth:`run_block` with the instructions it may
    still run before it has to look again (segment target, instruction
    and livelock budgets), plus, in record mode, the commit cycle at
    which a pending detection may mature, and interprets one
    instruction when it returns 0.

    Every compiled instruction calls ``commit``, the run's timing
    commit, as ``commit(pc)`` or ``commit(pc, address)`` like
    :meth:`MainCoreTiming.commit
    <repro.cores.main_core.MainCoreTiming.commit>`.  ``record`` adds
    per-instruction segment recording into the segment last passed to
    :meth:`note_segment`, and the detection bound: the protected
    engine's fill loop (and the differential oracle, which checks that
    code) runs record regions, the unprotected loop and checker replay
    commit-only ones — see :func:`repro.jit.emit.emit_factory_source`.
    """

    def __init__(
        self,
        program,
        state,
        port,
        commit: Callable[..., float],
        *,
        record: bool,
    ) -> None:
        self.program = program
        self.state = state
        self.port = port
        self.record = record
        self._table = decode_table(program)
        self._blocks = self._table.blocks
        self._code = _shared_code_for(program, record)
        regs = state.regs
        #: What every factory call binds.
        self._ctx: Dict[str, Any] = {
            "state": state,
            "regs": regs,
            # RegisterFile.restore copies in place, so these list
            # objects stay valid across checkpoints and rollbacks.
            "x": regs.x,
            "f": regs.f,
            "load": port.load,
            "store": port.store,
            "btf": bits_to_float,
            "ftb": float_to_bits,
            "sdiv": arith.sdiv,
            "srem": arith.srem,
            "fdiv": arith.fdiv,
            "fcvti": arith.fcvti,
            "flags_sub": arith.flags_sub,
            "commit": commit,
        }
        self._active: Dict[int, Callable[..., int]] = {}
        #: Current segment's ``record_instruction``; :meth:`run_block`
        #: passes it into every record-mode dispatch.
        self._rec: Optional[Callable[..., None]] = None
        self.stats = JitStats()

    # -- dispatch ---------------------------------------------------------
    def run_block(self, limit: int, bound: float = math.inf) -> int:
        """Run the block at ``state.pc`` for at most ``limit`` instructions.

        Returns how many instructions ran.  0 means "interpret this PC":
        no block may start there (a region's last instructions, a PC in
        no region such as ``HALT``, ``SYSCALL`` or a branch with no
        straight-line code before it, or a PC outside the program) or
        ``limit`` is not positive.  A block that ends with its region's
        branch leaves ``state.pc`` at the branch's target.  In record
        mode the block also stops after the first instruction whose
        commit cycle is at or past ``bound`` (commit-only regions ignore
        it: the unprotected loop has nothing pending).  A data-port
        exception propagates with ``pc`` and ``instret`` exact up to
        the raising instruction, uncounted.
        """
        pc = self.state.pc
        block = self._blocks.get(pc)
        if block is None:
            return 0
        start, room = block
        n = room if room < limit else limit
        if n <= 0:
            return 0
        run = self._active.get(start) or self.runner(start)
        s = pc - start
        if self.record:
            n = run(self._rec, s, s + n, bound) - s
        else:
            run(s, s + n)
        stats = self.stats
        stats.dispatches += 1
        stats.instructions += n
        return n

    def runner(self, start: int) -> Callable[..., int]:
        """The bound region starting at ``start``: compiled on the
        process's first dispatch into it, bound on the run's first."""
        run = self._active.get(start)
        if run is None:
            factory = self._code.get(start)
            if factory is None:
                factory = _compile_region(self._table, start, self.record)
                self._code[start] = factory
                self.stats.blocks_compiled += 1
            run = factory(self._ctx)
            self._active[start] = run
            self.stats.activations += 1
        return run

    # -- segment turnover -------------------------------------------------
    def note_segment(self, segment) -> None:
        """A new log segment opened: rebind the recorder."""
        self._rec = segment.record_instruction
        self.stats.segment_rebinds += 1
