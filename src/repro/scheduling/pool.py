"""Checker-core scheduling and power gating (section IV-C, figure 5).

ParaMedic allocates checker cores round-robin, which spreads work across
all sixteen cores and keeps them (and their log SRAM) powered.  ParaDox
instead allocates "the lowest-indexed free checker core", concentrating
work on low IDs so the high-ID cores and their log segments can be power
gated; "to avoid uneven ageing, ID 0 is chosen at random at boot time"
(a rotation applied to the ID ordering).

One :class:`CheckerPool` serves ``main_count`` main cores.  The paper's
system is the ``main_count == 1`` case: the one main core's candidate
order is the whole boot-rotated ring, so every
:class:`~repro.scheduling.shared.PoolPolicy` geometry coincides with a
private pool.  With several main cores each gets its own candidate
order over the same ring (see :mod:`repro.scheduling.shared`).

Replay is program-bound, so each engine owns the one
:class:`CheckerCore` replay model its checks run on; occupancy is
physical, so the pool tracks it by core ID and hands out IDs.  The pool keeps every dispatch record, from which figure
12's wake rates and the power model's gating savings are derived.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Set, Tuple

from .shared import DEFAULT_POOL_POLICY, PoolPolicy, _Turnstile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..resilience.health import CheckerHealthTracker


class SchedulingPolicy(enum.Enum):
    """How the next checker core is chosen."""

    ROUND_ROBIN = "round-robin"  # ParaMedic
    LOWEST_FREE_ID = "lowest-free-id"  # ParaDox


@dataclass
class DispatchRecord:
    """One segment's stay on a checker core."""

    core_id: int
    segment_seq: int
    start_ns: float
    end_ns: float
    #: Main core that produced the segment (0 for a one-main pool).
    main_id: int = 0


class CheckerPool:
    """Physical occupancy of the checker cores shared by ``main_count`` mains."""

    def __init__(
        self,
        size: int,
        scheduling: SchedulingPolicy = SchedulingPolicy.LOWEST_FREE_ID,
        boot_offset: int = 0,
        main_count: int = 1,
        policy: PoolPolicy = DEFAULT_POOL_POLICY,
    ) -> None:
        if size < 1:
            raise ValueError("a checker pool needs at least one core")
        if main_count < 1:
            raise ValueError("a checker pool needs at least one main core")
        if size < main_count:
            raise ValueError(
                f"pool of {size} checkers cannot serve {main_count} main cores"
            )
        self.scheduling = scheduling
        self.main_count = main_count
        #: Random rotation of core IDs applied at boot (anti-ageing).
        self.boot_offset = boot_offset % size
        ring = [(self.boot_offset + i) % size for i in range(size)]
        #: Physical core IDs each main may use, in preference order.
        self.candidates = [
            _candidate_order(ring, main_id, main_count, policy)
            for main_id in range(main_count)
        ]
        #: Wall time at which each physical core finishes its current job.
        self.busy_until_ns = [0.0] * size
        #: Round-robin position in the (one) candidate ring.
        self._rr_pointer = 0
        self.dispatches: List[DispatchRecord] = []
        #: Each physical core's latest record, whose end an abort clamps
        #: the core's busy-until time to (see :meth:`abort`).
        self._last_record: List[Optional[DispatchRecord]] = [None] * size
        #: Cumulative checker-wait per main, accumulated at select time.
        self.wait_ns = [0.0] * main_count
        #: Turn-taking across the mains' engine threads; one main, the
        #: pool's only caller, needs none.
        self.turnstile = _Turnstile(main_count) if main_count > 1 else None

    def __len__(self) -> int:
        return len(self.busy_until_ns)

    # -- selection -------------------------------------------------------------
    def eligible(
        self,
        main_id: int = 0,
        avoid: Optional[Set[int]] = None,
        health: Optional["CheckerHealthTracker"] = None,
    ) -> List[int]:
        """Core IDs ``main_id`` may give new work to, in preference order.

        Quarantined cores (per ``health``, the main's own tracker) are
        dropped, then cores suspected by an in-flight retry (``avoid``,
        so the re-check lands on different hardware).  Either filter is
        relaxed rather than deadlocking when it would empty the list;
        the policy fence itself never relaxes (a ``static`` main with a
        fully quarantined slice waits on it).
        """
        cores = self.candidates[main_id]
        if health is not None:
            healthy = [c for c in cores if not health.is_quarantined(c)]
            if healthy:
                cores = healthy
        if avoid:
            preferred = [c for c in cores if c not in avoid]
            if preferred:
                cores = preferred
        return cores

    def select(
        self,
        now_ns: float,
        avoid: Optional[Set[int]] = None,
        health: Optional["CheckerHealthTracker"] = None,
        main_id: int = 0,
    ) -> Tuple[int, float]:
        """Pick a core per policy; returns ``(core_id, start_ns)``.

        ``start_ns`` is ``now_ns`` if the chosen core is free, otherwise
        the time the main core must wait for ("if all checkers are busy
        ... the main core has to wait for a checker to finish"): the
        eligible core that frees earliest.
        """
        eligible = self.eligible(main_id, avoid, health)
        busy = self.busy_until_ns
        ring = self.candidates[main_id]
        if self.scheduling is SchedulingPolicy.ROUND_ROBIN:
            # ParaMedic walks the boot-rotated ring on from the core after
            # the one it chose last, so rotation applies to both policies.
            n = len(ring)
            allowed = set(eligible)
            for probe in range(n):
                pos = (self._rr_pointer + probe) % n
                if ring[pos] in allowed and busy[ring[pos]] <= now_ns:
                    self._rr_pointer = (pos + 1) % n
                    return ring[pos], now_ns
        else:
            for core_id in eligible:
                if busy[core_id] <= now_ns:
                    return core_id, now_ns
        core_id = min(eligible, key=busy.__getitem__)
        if self.scheduling is SchedulingPolicy.ROUND_ROBIN:
            self._rr_pointer = (ring.index(core_id) + 1) % len(ring)
        start_ns = busy[core_id]
        self.wait_ns[main_id] += start_ns - now_ns
        return core_id, start_ns

    # -- dispatch ------------------------------------------------------------------
    def dispatch(
        self,
        core_id: int,
        segment_seq: int,
        start_ns: float,
        duration_ns: float,
        main_id: int = 0,
    ) -> DispatchRecord:
        """Occupy ``core_id`` with a segment for ``duration_ns`` from ``start_ns``.

        ``start_ns`` is at or after the core's busy-until time, as
        :meth:`select` returns it; :meth:`abort` relies on that order.
        """
        end_ns = start_ns + duration_ns
        self.busy_until_ns[core_id] = end_ns
        record = DispatchRecord(core_id, segment_seq, start_ns, end_ns, main_id)
        self.dispatches.append(record)
        self._last_record[core_id] = record
        return record

    def abort(self, record: DispatchRecord, at_ns: float) -> Optional[float]:
        """Squash an in-flight check at ``at_ns`` (rollback of its segment).

        Returns the reclaimed busy time, or None if the check had already
        finished by ``at_ns``.
        """
        if record.end_ns <= at_ns:
            return None
        reclaimed = record.end_ns - max(at_ns, record.start_ns)
        record.end_ns = max(at_ns, record.start_ns)
        # A squash that lands before the check even began must not rewind
        # the core below an earlier, unaborted check (any main's).  A
        # dispatch starts at or after its core's busy-until time and an
        # abort never cuts a record below its start, so the ends of a
        # core's records never decrease: the latest record ends last.
        self.busy_until_ns[record.core_id] = self._last_record[
            record.core_id
        ].end_ns  # type: ignore[union-attr]
        return reclaimed

    # -- statistics ------------------------------------------------------------------
    def records(self, main_id: Optional[int] = None) -> List[DispatchRecord]:
        """Dispatch records, all mains' or only ``main_id``'s."""
        if main_id is None:
            return self.dispatches
        return [r for r in self.dispatches if r.main_id == main_id]

    def wake_rates(self, total_ns: float, main_id: Optional[int] = None) -> List[float]:
        """Fraction of wall time each physical core spent awake (fig. 12).

        Computed from the dispatch records with every busy interval
        clamped to ``[0, total_ns]``: checks still in flight when the
        main core finishes overrun the run's end, and counting that
        overhang could report a physically meaningless wake rate above
        1.0.  With ``main_id`` only that main's dispatches count.
        """
        if total_ns <= 0:
            return [0.0] * len(self)
        busy = [0.0] * len(self)
        for record in self.records(main_id):
            start = min(max(record.start_ns, 0.0), total_ns)
            end = min(max(record.end_ns, 0.0), total_ns)
            if end > start:
                busy[record.core_id] += end - start
        return [min(b / total_ns, 1.0) for b in busy]

    def busy_ns(self, main_id: Optional[int] = None) -> float:
        """Total checker-busy time of the pool's (or one main's) dispatches."""
        return sum(max(r.end_ns - r.start_ns, 0.0) for r in self.records(main_id))

    def peak_concurrency(self, main_id: Optional[int] = None) -> int:
        """Maximum number of simultaneously busy cores over the run."""
        events: List[Tuple[float, int]] = []
        for record in self.records(main_id):
            if record.end_ns > record.start_ns:
                events.append((record.start_ns, 1))
                events.append((record.end_ns, -1))
        events.sort()
        peak = current = 0
        for _time, delta in events:
            current += delta
            peak = max(peak, current)
        return peak


def _candidate_order(
    ring: List[int], main_id: int, main_count: int, policy: PoolPolicy
) -> List[int]:
    """Physical core IDs ``main_id`` may use under ``policy``, preferred first."""
    m, k = main_count, len(ring)
    lo, hi = main_id * k // m, (main_id + 1) * k // m
    if policy is PoolPolicy.STATIC:
        return ring[lo:hi]
    if policy is PoolPolicy.WORK_STEALING:
        return ring[lo:hi] + ring[hi:] + ring[:lo]
    # RESERVATION: a private stripe per main plus a shared overflow.
    reserved = max(1, k // (2 * m))
    return ring[main_id * reserved : (main_id + 1) * reserved] + ring[m * reserved :]
