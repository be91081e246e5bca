"""Fairness and throughput metrics for a shared checker pool.

When M main cores contend for one pool, two questions matter: did every
producer get a proportionate share of the detection hardware (dispatch
and busy share), and was the *price* of contention — time spent waiting
for a checker another core occupied — spread evenly (wait-time Gini)?
A Gini of 0 means every main waited equally; 1 means one main absorbed
all the waiting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative sample (0 = equal, →1 = concentrated)."""
    n = len(values)
    if n == 0:
        return 0.0
    if any(v < 0 for v in values):
        raise ValueError("gini is defined for non-negative values")
    total = sum(values)
    if total == 0:
        return 0.0
    ordered = sorted(values)
    # Mean absolute difference form via the rank-weighted sum.
    weighted = sum((2 * (i + 1) - n - 1) * v for i, v in enumerate(ordered))
    return weighted / (n * total)


def shares(values: Sequence[float]) -> List[float]:
    """Normalise to fractions that sum to 1 (all-zero input stays zero)."""
    total = sum(values)
    if total <= 0:
        return [0.0] * len(values)
    return [v / total for v in values]


@dataclass
class FairnessReport:
    """Per-main fairness/throughput summary of one shared-pool run."""

    #: Fraction of all pool dispatches issued by each main core (sums to 1).
    dispatch_share: List[float]
    #: Fraction of total checker-busy time consumed by each main (sums to 1).
    busy_share: List[float]
    #: Cumulative checker-wait per main core, nanoseconds.
    wait_ns: List[float]
    #: Concentration of the waiting cost across mains.
    wait_gini: float
    #: Pool-wide per-physical-core wake rates (figure 12, all mains).
    pool_wake_rates: List[float]

    @classmethod
    def from_pool(cls, pool: Any, total_ns: float) -> "FairnessReport":
        """Build from a ``CheckerPool`` after its engines finish."""
        mains = range(pool.main_count)
        return cls(
            dispatch_share=shares([float(len(pool.records(m))) for m in mains]),
            busy_share=shares([pool.busy_ns(m) for m in mains]),
            wait_ns=list(pool.wait_ns),
            wait_gini=gini(pool.wait_ns),
            pool_wake_rates=pool.wake_rates(total_ns),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dispatch_share": self.dispatch_share,
            "busy_share": self.busy_share,
            "wait_ns": self.wait_ns,
            "wait_gini": self.wait_gini,
            "pool_wake_rates": self.pool_wake_rates,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FairnessReport":
        return cls(
            dispatch_share=list(payload["dispatch_share"]),
            busy_share=list(payload["busy_share"]),
            wait_ns=list(payload["wait_ns"]),
            wait_gini=float(payload["wait_gini"]),
            pool_wake_rates=list(payload["pool_wake_rates"]),
        )
