"""Memory hierarchy: timing caches and unchecked-line tracking.

The paper assumes SECDED-protected memory and caches (section IV-E);
the simulator models their timing, not that code.
"""

from .cache import AccessResult, Cache, CacheStats, MemoryHierarchy, StridePrefetcher
from .unchecked import UncheckedLineTracker

__all__ = [
    "AccessResult",
    "Cache",
    "CacheStats",
    "MemoryHierarchy",
    "StridePrefetcher",
    "UncheckedLineTracker",
]
