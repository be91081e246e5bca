"""Opt-in engine invariant assertions (``EngineOptions.paranoid``).

The engine's bookkeeping — segment sequence numbers, the unchecked-line
tracker, the pending-check queue, checker quarantine, the DVFS tide
mark — is all redundant state derived from the same event stream.  In
paranoid mode a :class:`ParanoidChecker` re-derives the redundant views
at segment granularity (close, commit, rollback) and raises
:class:`EngineInvariantError` on the first disagreement, with enough
context to localise the bookkeeping bug.

Violations raise a real exception rather than ``assert`` so the checks
survive ``python -O``; when paranoid mode is off the engine holds
``paranoid = None`` and each hook site is a single ``is not None`` test
at segment granularity (the telemetry discipline — see
``docs/PERFORMANCE.md``), so the disabled path costs nothing.

The checker deliberately reaches into engine internals (underscored
fields): it is a test oracle for those internals, not an API client,
and keeping it outside :mod:`repro.core.engine` keeps the production
file free of verification code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Set

from ..lslog.segment import LogSegment, RollbackGranularity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import SimulationEngine

#: Voltage comparisons tolerate float slew arithmetic.
_EPS = 1e-9


class EngineInvariantError(RuntimeError):
    """A paranoid-mode invariant did not hold."""

    def __init__(self, where: str, message: str) -> None:
        super().__init__(f"[paranoid@{where}] {message}")
        self.where = where


class ParanoidChecker:
    """Re-derive and cross-check the engine's redundant bookkeeping."""

    def __init__(self) -> None:
        #: Highest segment seq ever closed; closes must be monotonic.
        self._last_closed_seq = 0

    # -- hook entry points (called by the engine, is-not-None guarded) --------
    def on_close(self, engine: "SimulationEngine", segment: LogSegment) -> None:
        where = f"close seg {segment.seq}"
        if not segment.is_closed:
            raise EngineInvariantError(where, "closed segment not marked closed")
        if segment.seq <= self._last_closed_seq:
            raise EngineInvariantError(
                where,
                f"segment seq not monotonic: closing {segment.seq} after "
                f"{self._last_closed_seq}",
            )
        self._last_closed_seq = segment.seq
        # At close time this segment is the newest writer, so every line
        # it stored must be stamped with exactly its seq.
        if engine.options.granularity is not RollbackGranularity.NONE:
            tracker = engine.tracker
            stamps = tracker._timestamp
            for address in segment.store_addrs:
                line = tracker.line_of(address)
                stamp = stamps.get(line)
                if stamp != segment.seq:
                    raise EngineInvariantError(
                        where,
                        f"line {line:#x} stored by segment {segment.seq} "
                        f"stamped {stamp!r}",
                    )
        self.verify(engine, where)

    def on_commit(self, engine: "SimulationEngine") -> None:
        self.verify(engine, "commit")

    def on_rollback(self, engine: "SimulationEngine", to_seq: int) -> None:
        where = f"rollback->{to_seq}"
        stamps: Dict[int, int] = engine.tracker._timestamp
        stale = [s for s in stamps.values() if s > to_seq]
        if stale:
            raise EngineInvariantError(
                where,
                f"{len(stale)} tracker stamps survive past rollback "
                f"boundary {to_seq} (max {max(stale)})",
            )
        self.verify(engine, where)

    # -- the invariants --------------------------------------------------------
    def verify(self, engine: "SimulationEngine", where: str) -> None:
        self._check_pending(engine, where)
        self._check_tracker(engine, where)
        self._check_pool(engine, where)
        self._check_dvfs(engine, where)

    @staticmethod
    def _check_pending(engine: "SimulationEngine", where: str) -> None:
        seqs = [p.segment.seq for p in engine._pending]
        if any(b <= a for a, b in zip(seqs, seqs[1:])):
            raise EngineInvariantError(
                where, f"pending checks out of order: {seqs}"
            )
        if any(seq >= engine._next_seq for seq in seqs):
            raise EngineInvariantError(
                where,
                f"pending seq beyond allocator: {seqs} vs next "
                f"{engine._next_seq}",
            )
        earliest = min(
            (p for p in engine._pending if p.result.detected),
            key=lambda p: p.end_ns,
            default=None,
        )
        if engine._earliest_detection is not earliest:
            raise EngineInvariantError(
                where,
                f"earliest detection {engine._earliest_detection!r} is stale "
                f"(actual {earliest!r})",
            )

    @staticmethod
    def _check_tracker(engine: "SimulationEngine", where: str) -> None:
        tracker = engine.tracker
        stamps: Dict[int, int] = tracker._timestamp
        if engine.options.granularity is RollbackGranularity.NONE:
            if stamps:
                raise EngineInvariantError(
                    where,
                    f"tracker holds {len(stamps)} lines with rollback "
                    f"granularity none",
                )
            return
        # Per-set occupancy counters must equal a recount of the map.
        recount = [0] * tracker.num_sets
        for line in stamps:
            recount[tracker.set_index(line)] += 1
        if recount != tracker._set_load:
            raise EngineInvariantError(
                where,
                f"tracker set-load counters disagree with line map: "
                f"{sum(tracker._set_load)} counted vs {len(stamps)} lines",
            )
        # Every stamp must name a live (uncommitted) segment that really
        # stored to that line: no stale stamps for committed or squashed
        # work.  (The converse — every uncommitted store being tracked —
        # does not hold: commit_write keeps only the newest writer per
        # line, and rollback drops stamps newer than the boundary.)
        live: Dict[int, LogSegment] = {
            p.segment.seq: p.segment for p in engine._pending
        }
        filler = engine._segment
        if filler is not None:
            live[filler.seq] = filler
        store_lines: Dict[int, Set[int]] = {
            seq: {tracker.line_of(a) for a in seg.store_addrs}
            for seq, seg in live.items()
        }
        for line, stamp in stamps.items():
            owner = store_lines.get(stamp)
            if owner is None:
                raise EngineInvariantError(
                    where,
                    f"line {line:#x} stamped by seq {stamp} which is "
                    f"neither pending nor filling (live: {sorted(live)})",
                )
            if line not in owner:
                raise EngineInvariantError(
                    where,
                    f"line {line:#x} stamped by seq {stamp} but that "
                    f"segment never stored to it",
                )

    @staticmethod
    def _check_pool(engine: "SimulationEngine", where: str) -> None:
        pool = engine.pool
        health = engine.health
        if pool is None or health is None:
            return
        quarantined = health.quarantined
        unknown = quarantined - set(range(len(pool)))
        if unknown:
            raise EngineInvariantError(
                where, f"quarantined unknown core ids {sorted(unknown)}"
            )
        candidates = set(pool.candidates[engine.main_id])
        eligible = set(pool.eligible(engine.main_id, health=health))
        overlap = eligible & quarantined
        # eligible() drops the health filter only when it would empty
        # the main's candidates; any other overlap means quarantine is
        # leaking work.
        if overlap and not candidates <= quarantined:
            raise EngineInvariantError(
                where,
                f"quarantined cores {sorted(overlap)} still eligible for "
                f"dispatch",
            )

    @staticmethod
    def _check_dvfs(engine: "SimulationEngine", where: str) -> None:
        dvfs = engine.dvfs
        if dvfs is None:
            return
        config = dvfs.config
        voltage = dvfs.voltage
        if not (
            config.min_voltage - _EPS <= voltage <= config.safe_voltage + _EPS
        ):
            raise EngineInvariantError(
                where,
                f"voltage {voltage:.4f} outside "
                f"[{config.min_voltage}, {config.safe_voltage}]",
            )
        tide = dvfs.tide_mark
        if not (0.0 <= tide <= config.safe_voltage + _EPS):
            raise EngineInvariantError(
                where,
                f"tide mark {tide:.4f} outside [0, {config.safe_voltage}]",
            )
