"""A checker pool shared by several main cores (multi-main ParaDox).

The paper gives each main core a private pool.  Real multiprogrammed
parts share the detection hardware: M hungry producers compete for one
set of checker cores, and how that contention is arbitrated decides both
the fairness story and how much of the pool can stay power gated.  One
:class:`~repro.scheduling.pool.CheckerPool` models both cases; this
module holds what only M > 1 needs.

Three arbitration policies fix each main's candidate order over the
boot-rotated ID ring (the pool then schedules lowest-free-ID over it):

* ``static`` — the pool is partitioned into M contiguous slices of the
  ring; each main core schedules inside its own slice and never crosses
  the fence.  Perfect isolation, worst peak throughput.
* ``steal`` — each main core prefers its own slice but steals the
  lowest-free core from the rest of the ring when its slice is fully
  busy, and when everything is busy it waits for the earliest free
  core.  Best throughput, weakest isolation.
* ``reserve`` — an EnSuRe/deadline-style reservation: every main core
  owns a small reserved stripe (never lent out, so its wait for a
  checker is bounded by one in-flight check on its own hardware) and
  the remainder of the pool is a first-come-first-served overflow
  region shared by everyone.

With one main core all three orders are the whole ring.

Determinism: each engine runs on its own thread, and every pool
interaction (select / dispatch / abort) goes through the main's
:class:`SharedPoolView`, which takes a :class:`_Turnstile` turn that is
granted only to the globally earliest blocked interaction, and only once
*no* engine is freely running.  Because each engine's interaction times
are nondecreasing, interactions execute in globally sorted
``(time_ns, main_id)`` order — a conservative discrete-event
co-simulation, bit-identical on every run.  ``select`` holds the turn
until the matching ``dispatch`` so the select-to-dispatch pair is one
atomic reservation (two mains can never claim the same free checker for
overlapping intervals).
"""

from __future__ import annotations

import enum
import threading
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..resilience.health import CheckerHealthTracker
    from .pool import CheckerPool, DispatchRecord


class PoolPolicy(enum.Enum):
    """How a shared pool arbitrates between main cores."""

    STATIC = "static"
    WORK_STEALING = "steal"
    RESERVATION = "reserve"


POOL_POLICIES: Dict[str, PoolPolicy] = {p.value: p for p in PoolPolicy}
DEFAULT_POOL_POLICY = PoolPolicy.WORK_STEALING


class _Turnstile:
    """Deterministic turn-taking across the engine threads.

    States per main: ``running`` (executing between pool interactions),
    ``waiting`` (blocked at an interaction stamped with its simulated
    time), ``holding`` (the granted interaction is in progress), and
    ``done`` (the engine finished or died).  A waiter is granted only
    when nobody holds, nobody is freely running, and it carries the
    minimum ``(time_ns, main_id)`` — so interactions execute in global
    simulated-time order regardless of OS thread scheduling.
    """

    _RUNNING, _WAITING, _HOLDING, _DONE = range(4)

    def __init__(self, parties: int) -> None:
        self._cond = threading.Condition()
        self._state = [self._RUNNING] * parties
        self._time = [0.0] * parties

    def _grantable(self, main_id: int) -> bool:
        states = self._state
        if any(s == self._HOLDING for s in states):
            return False
        if any(s == self._RUNNING for s in states):
            return False
        best = min(
            (i for i, s in enumerate(states) if s == self._WAITING),
            key=lambda i: (self._time[i], i),
        )
        return best == main_id

    def acquire(self, main_id: int, at_ns: float) -> None:
        with self._cond:
            assert self._state[main_id] == self._RUNNING, "nested pool interaction"
            self._state[main_id] = self._WAITING
            self._time[main_id] = at_ns
            self._cond.notify_all()
            while not self._grantable(main_id):
                self._cond.wait()
            self._state[main_id] = self._HOLDING

    def release(self, main_id: int) -> None:
        with self._cond:
            self._state[main_id] = self._RUNNING
            self._cond.notify_all()

    def finish(self, main_id: int) -> None:
        """Mark ``main_id`` done (normal exit or exception) forever."""
        with self._cond:
            self._state[main_id] = self._DONE
            self._cond.notify_all()


class SharedPoolView:
    """One main core's handle on a shared pool: take the turn, pass ``main_id``.

    Offers the scheduling calls of :class:`~repro.scheduling.pool.CheckerPool`
    (``select`` / ``dispatch`` / ``abort``) minus their ``main_id``
    argument, so an engine schedules through either without knowing
    which.
    """

    def __init__(self, pool: "CheckerPool", main_id: int) -> None:
        assert pool.turnstile is not None, "a one-main pool needs no view"
        self.pool = pool
        self.main_id = main_id
        self.turnstile: _Turnstile = pool.turnstile

    def select(
        self,
        now_ns: float,
        avoid: Optional[Set[int]] = None,
        health: Optional["CheckerHealthTracker"] = None,
    ) -> Tuple[int, float]:
        """Reserve a core; the turn is held until :meth:`dispatch`."""
        self.turnstile.acquire(self.main_id, now_ns)
        return self.pool.select(now_ns, avoid, health, self.main_id)

    def dispatch(
        self, core_id: int, segment_seq: int, start_ns: float, duration_ns: float
    ) -> "DispatchRecord":
        try:
            return self.pool.dispatch(
                core_id, segment_seq, start_ns, duration_ns, self.main_id
            )
        finally:
            self.turnstile.release(self.main_id)

    def abort(self, record: "DispatchRecord", at_ns: float) -> Optional[float]:
        self.turnstile.acquire(self.main_id, at_ns)
        try:
            return self.pool.abort(record, at_ns)
        finally:
            self.turnstile.release(self.main_id)
