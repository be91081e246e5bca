"""Geometric fault-arrival process.

The paper injects independent errors with geometrically distributed gaps
("we thus choose the geometric probability distribution to govern the gap
between two error injections", section V-A), the discrete analogue of a
Poisson process: each targeted operation independently faults with
probability ``rate``.

:class:`GeometricArrival` maintains the countdown to the next fault in
its own *domain* (instructions, loads, stores, or unit-specific
instructions).  It supports both per-operation stepping and bulk
advancing over a whole segment, which the engine's fast path uses to skip
functional replay of segments in which no fault can fire — the process
remains *exactly* geometric either way.

Rates may change between segments (dynamic voltage adaptation changes the
underlying physical rate); the countdown is resampled on a rate change,
which is exact thanks to the geometric distribution's memorylessness.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

#: Rates below this are treated as "never fires" to avoid numerical trouble
#: (a 1e-30 geometric sample overflows int64 in numpy).  A *non-zero*
#: rate hitting this floor is an explicit, observable clamp: the
#: :attr:`GeometricArrival.clamped` property reports it and
#: :attr:`GeometricArrival.clamp_events` counts every resample that
#: applied it (the injector surfaces the count as the
#: ``faults.rate_clamped`` telemetry metric).
MIN_RATE = 1e-15


class GeometricArrival:
    """Countdown to the next fault, geometric with parameter ``rate``."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        if rate < 0 or rate > 1:
            raise ValueError(f"rate must be within [0, 1], got {rate}")
        self._rng = rng
        self._rate = float(rate)
        self._remaining: Optional[int] = None
        #: Resamples that clamped a non-zero sub-``MIN_RATE`` rate to
        #: "never fires".  Rate 0 is an exact request, not a clamp.
        self.clamp_events = 0
        self._resample()

    # -- configuration ------------------------------------------------------------
    @property
    def rate(self) -> float:
        return self._rate

    @property
    def clamped(self) -> bool:
        """True when the current rate is non-zero but below ``MIN_RATE``,
        so the process silently never fires unless made explicit here."""
        return 0.0 < self._rate < MIN_RATE

    def set_rate(self, rate: float) -> None:
        """Change the per-operation fault probability (memoryless resample)."""
        if rate < 0 or rate > 1:
            raise ValueError(f"rate must be within [0, 1], got {rate}")
        if rate != self._rate:
            self._rate = float(rate)
            self._resample()

    def _resample(self) -> None:
        if self._rate < MIN_RATE:
            if self._rate > 0.0:
                self.clamp_events += 1
            self._remaining = None  # never fires
        else:
            # Number of trials up to and including the first success.
            self._remaining = int(self._rng.geometric(self._rate))

    # -- queries --------------------------------------------------------------------
    def fires_within(self, count: int) -> bool:
        """Would any of the next ``count`` operations fault?  (No state change.)"""
        return self._remaining is not None and self._remaining <= count

    def clean_operations(self) -> float:
        """How many next operations cannot fault: the countdown less the
        one that does, or ``math.inf`` when the process never fires."""
        return math.inf if self._remaining is None else self._remaining - 1

    # -- consumption -------------------------------------------------------------------
    def step(self) -> bool:
        """Consume one operation; return True if it faults."""
        if self._remaining is None:
            return False
        self._remaining -= 1
        if self._remaining <= 0:
            self._resample()
            return True
        return False

    def advance(self, count: int) -> Optional[int]:
        """Consume up to ``count`` operations in bulk.

        If a fault falls within them, returns its 1-based offset and
        leaves the process positioned *at* the fault (the caller is
        expected to handle the remaining ``count - offset`` operations,
        e.g. by calling :meth:`advance` again); otherwise consumes all
        ``count`` and returns None.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if self._remaining is None or self._remaining > count:
            if self._remaining is not None:
                self._remaining -= count
            return None
        offset = self._remaining
        self._resample()
        return offset
