"""Statistics records shared by the simulation engine and experiments."""

from .run_stats import (
    RecoveryEvent,
    RunOutcome,
    RunResult,
    StallBreakdown,
    StallBucket,
)

__all__ = [
    "RecoveryEvent",
    "RunOutcome",
    "RunResult",
    "StallBreakdown",
    "StallBucket",
]
