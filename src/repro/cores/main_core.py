"""Main-core timing model: a cycle-approximate 3-wide out-of-order core.

A greedy scoreboard over the committed instruction stream, the standard
"interval" style of OoO approximation: each retiring instruction issues as
soon as its source registers are ready (register dependencies), subject to
the ROB window (an instruction cannot issue until the instruction
``rob_entries`` older has committed), front-end availability (I-cache
latency and branch-mispredict redirects) and per-functional-unit
latencies; commit retires at most ``commit_width`` instructions per cycle
in order.

This reproduces the first-order behaviour that matters to ParaDox:
dependence-limited IPC for compute loops, miss-latency exposure for
memory-bound code, mispredict penalties, and the 16-cycle commit block at
each register checkpoint.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional

from ..isa.decode import SLOT_COUNT, decode_table
from ..memory.cache import MemoryHierarchy
from .branch_predictor import TournamentPredictor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import MainCoreConfig
    from ..isa import Program


class MainCoreTiming:
    """Commit-time calculator for the out-of-order main core.

    All times are in *main-core cycles* as floats; the engine converts to
    wall-clock using the (DVFS-scaled) frequency of the current interval.
    :meth:`commit` takes the PC of each retired instruction plus what
    only the run knows (a memory operation's address, a branch's outcome
    and target); every static fact (unit, latency, load and branch
    flags, registers read and written) comes from the program's
    :func:`~repro.isa.decode.decode_table`.
    """

    def __init__(
        self,
        config: "MainCoreConfig",
        hierarchy: MemoryHierarchy,
        predictor: TournamentPredictor,
        program: "Program",
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.predictor = predictor
        table = decode_table(program)
        #: Per PC: a :data:`~repro.isa.decode.MainRow`.
        self._rows = table.main_rows
        self._instructions = table.instructions
        #: Committed instructions per unit name, in first-seen order,
        #: wasted re-runs included (the run's energy mix).
        self.unit_mix: Dict[str, int] = {}
        #: Completion cycle per register slot.  Never-written registers
        #: read 0.0, which no ready time (itself >= 0) is below.
        self._reg_ready = [0.0] * SLOT_COUNT
        #: Commit cycles of the youngest ``rob_entries`` instructions.
        self._rob: Deque[float] = deque(maxlen=config.rob_entries)
        #: ``rob_entries`` again: an attribute read is cheaper per commit
        #: than ``deque.maxlen``.
        self._rob_entries = config.rob_entries
        #: Earliest cycle the front end can supply the next instruction.
        self._fetch_ready: float = 0.0
        #: Commit cursor: cycle of the most recent commit.
        self.now: float = 0.0
        self._commit_slot = 1.0 / config.commit_width
        self._last_fetch_line: Optional[int] = None

    # -- main entry point -------------------------------------------------------------
    def commit(
        self,
        pc: int,
        address: Optional[int] = None,
        taken: Optional[bool] = None,
        pc_after: Optional[int] = None,
    ) -> float:
        """Account the instruction retired at ``pc``; return its commit cycle.

        ``address`` is a memory operation's effective address; ``taken``
        and ``pc_after`` are a branch's outcome and next PC.
        """
        latency, is_load, is_branch, reads, write, unit = self._rows[pc]
        mix = self.unit_mix
        mix[unit] = mix.get(unit, 0) + 1

        # Front end: a new I-cache line (16 instructions per 64-byte
        # line) may miss, which delays the front end from now.
        line = (pc * 4) >> 6
        if line != self._last_fetch_line:
            self._last_fetch_line = line
            fetch_latency = self.hierarchy.fetch_access(pc * 4)
            if fetch_latency > 1:
                stall_until = self.now + fetch_latency
                if stall_until > self._fetch_ready:
                    self._fetch_ready = stall_until
        ready = self._fetch_ready

        reg_ready = self._reg_ready
        for slot in reads:
            when = reg_ready[slot]
            if when > ready:
                ready = when
        rob = self._rob
        if len(rob) == self._rob_entries and rob[0] > ready:
            ready = rob[0]  # ROB full: wait for the oldest to commit

        if address is not None:
            access = self.hierarchy.data_access(address, pc=pc)
            if is_load:
                latency = float(access.latency_cycles)
            # Stores retire into the store queue; their miss latency is
            # hidden, only occupancy matters (not modelled per-slot).
        complete = ready + latency

        commit = complete
        floor = self.now + self._commit_slot
        if commit < floor:
            commit = floor
        rob.append(commit)
        self.now = commit
        if write >= 0:
            reg_ready[write] = complete
        if is_branch:
            mispredicted = self.predictor.access(
                pc, self._instructions[pc], bool(taken), pc_after
            )
            if mispredicted:
                redirect = complete + self.predictor.config.mispredict_penalty_cycles
                if redirect > self._fetch_ready:
                    self._fetch_ready = redirect
        return commit

    # -- engine hooks --------------------------------------------------------------------
    def block_commit(self, cycles: float) -> None:
        """Block commit for ``cycles`` (register checkpointing, 16 cycles)."""
        self.now += cycles
        self._fetch_ready = max(self._fetch_ready, self.now)

    def stall_until(self, cycle: float) -> float:
        """Stall the core until ``cycle`` (checker busy / L1 conflict).

        Returns the stall length in cycles (0 if already past it).
        """
        if cycle > self.now:
            stalled = cycle - self.now
            self.now = cycle
            self._fetch_ready = max(self._fetch_ready, self.now)
            return stalled
        return 0.0

    def discard_inflight(self) -> None:
        """Squash speculative scoreboard state (used on rollback)."""
        self._reg_ready[:] = [0.0] * SLOT_COUNT
        self._rob.clear()
        self._fetch_ready = max(self._fetch_ready, self.now)
        self._last_fetch_line = None
