"""Memory hierarchy: timing caches, SECDED ECC, unchecked-line tracking."""

from .cache import AccessResult, Cache, CacheStats, MemoryHierarchy, StridePrefetcher
from .ecc import (
    CODE_BITS,
    DATA_BITS,
    EccProtectedWord,
    EccResult,
    EccStatus,
    decode,
    encode,
    extract_data,
    flip_bits,
)
from .unchecked import UncheckedLineTracker

__all__ = [
    "AccessResult",
    "CODE_BITS",
    "Cache",
    "CacheStats",
    "DATA_BITS",
    "EccProtectedWord",
    "EccResult",
    "EccStatus",
    "MemoryHierarchy",
    "StridePrefetcher",
    "UncheckedLineTracker",
    "decode",
    "encode",
    "extract_data",
    "flip_bits",
]
