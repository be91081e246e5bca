"""Core models: out-of-order main core, in-order checker cores."""

from .branch_predictor import BranchStats, TournamentPredictor
from .checker_core import CheckResult, CheckerCore, SegmentFaultHook, TIMEOUT_FACTOR
from .icache_model import (
    ICachePenalty,
    L0_MISS_CYCLES,
    L1_MISS_CYCLES,
    icache_penalty,
    miss_probability,
)
from .main_core import MainCoreTiming

__all__ = [
    "BranchStats",
    "CheckResult",
    "CheckerCore",
    "ICachePenalty",
    "L0_MISS_CYCLES",
    "L1_MISS_CYCLES",
    "MainCoreTiming",
    "SegmentFaultHook",
    "TIMEOUT_FACTOR",
    "TournamentPredictor",
    "icache_penalty",
    "miss_probability",
]
