"""Checker-core scheduling policies and power-gating accounting."""

from .pool import CheckerPool, DispatchRecord, SchedulingPolicy
from .shared import DEFAULT_POOL_POLICY, POOL_POLICIES, PoolPolicy, SharedPoolView

__all__ = [
    "CheckerPool",
    "DEFAULT_POOL_POLICY",
    "DispatchRecord",
    "POOL_POLICIES",
    "PoolPolicy",
    "SchedulingPolicy",
    "SharedPoolView",
]
