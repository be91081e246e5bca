"""Set-associative cache timing model with LRU replacement.

These caches are *timing-only*: data always lives in the architectural
:class:`~repro.isa.memory_image.MemoryImage` (the functional executor is
exact), while the caches track which lines are resident to charge
realistic hit/miss latencies.  This mirrors the paper's gem5 usage, where
the interesting behaviour — checkpoint sizing, log pressure, checker
occupancy — derives from the *timing* of the memory system.

A :class:`StridePrefetcher` can be attached (the Table I L2 has one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import CacheConfig


@dataclass
class CacheStats:
    """Hit/miss counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    prefetches: int = 0
    prefetch_hits: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = 0
        self.prefetches = self.prefetch_hits = 0


class Cache:
    """One level of set-associative cache with true-LRU replacement."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.ways = config.associativity
        self.line_shift = config.line_bytes.bit_length() - 1
        self.set_mask = self.num_sets - 1
        if self.num_sets & self.set_mask:
            raise ValueError(f"{name}: number of sets must be a power of two")
        # Per set: list of line addresses in LRU order (front = MRU).
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self._prefetched: set = set()
        self.stats = CacheStats()

    # -- address helpers -----------------------------------------------------
    def line_of(self, address: int) -> int:
        return address >> self.line_shift << self.line_shift

    def set_index(self, address: int) -> int:
        return (address >> self.line_shift) & self.set_mask

    # -- operations --------------------------------------------------------------
    def lookup(self, address: int) -> bool:
        """Probe without changing state; true if the line is resident."""
        return self.line_of(address) in self._sets[self.set_index(address)]

    def access(self, address: int) -> Tuple[bool, Optional[int]]:
        """Access ``address``; returns ``(hit, evicted_line_or_None)``.

        On a miss, the line is filled and the LRU line of the set may be
        evicted.
        """
        line = self.line_of(address)
        cache_set = self._sets[self.set_index(address)]
        if line in cache_set:
            self.stats.hits += 1
            if line in self._prefetched:
                self._prefetched.discard(line)
                self.stats.prefetch_hits += 1
            if cache_set[0] != line:
                cache_set.remove(line)
                cache_set.insert(0, line)
            return True, None
        self.stats.misses += 1
        evicted = self._fill(cache_set, line)
        return False, evicted

    def fill(self, address: int, prefetch: bool = False) -> Optional[int]:
        """Insert a line without counting an access (fills, prefetches)."""
        line = self.line_of(address)
        cache_set = self._sets[self.set_index(address)]
        if line in cache_set:
            return None
        if prefetch:
            self.stats.prefetches += 1
            self._prefetched.add(line)
        return self._fill(cache_set, line)

    def _fill(self, cache_set: List[int], line: int) -> Optional[int]:
        evicted = None
        if len(cache_set) >= self.ways:
            evicted = cache_set.pop()
            self._prefetched.discard(evicted)
            self.stats.evictions += 1
        cache_set.insert(0, line)
        return evicted

    def invalidate(self, address: int) -> bool:
        """Drop the line containing ``address``; true if it was resident."""
        line = self.line_of(address)
        cache_set = self._sets[self.set_index(address)]
        if line in cache_set:
            cache_set.remove(line)
            self._prefetched.discard(line)
            return True
        return False

    def flush(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()
        self._prefetched.clear()

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)


class StridePrefetcher:
    """PC-indexed stride prefetcher (the Table I L2 prefetcher).

    Tracks the last address and stride per load PC; two consecutive
    accesses with the same stride arm it, after which it prefetches
    ``degree`` lines ahead.
    """

    def __init__(self, table_entries: int = 64, degree: int = 1) -> None:
        self.table_entries = table_entries
        self.degree = degree
        # pc -> (last_address, stride, confident)
        self._table: Dict[int, Tuple[int, int, bool]] = {}

    def observe(self, pc: int, address: int) -> List[int]:
        """Record an access; return addresses to prefetch (may be empty)."""
        prefetches: List[int] = []
        slot = pc % self.table_entries
        entry = self._table.get(slot)
        if entry is not None:
            last, stride, confident = entry
            new_stride = address - last
            if new_stride != 0 and new_stride == stride:
                prefetches = [
                    address + new_stride * (i + 1) for i in range(self.degree)
                ]
                self._table[slot] = (address, new_stride, True)
            else:
                self._table[slot] = (address, new_stride, False)
        else:
            self._table[slot] = (address, 0, False)
        return prefetches


@dataclass
class AccessResult:
    """Outcome of one data access through the hierarchy."""

    latency_cycles: int
    l1_hit: bool
    l2_hit: bool
    dram: bool


class MemoryHierarchy:
    """L1I + L1D + shared L2 + DRAM latency model (Table I, "Memory")."""

    def __init__(self, config: "SystemConfigLike") -> None:
        mem = config.memory
        self.config = mem
        self.l1i = Cache(mem.l1i, "l1i")
        self.l1d = Cache(mem.l1d, "l1d")
        self.l2 = Cache(mem.l2, "l2")
        self.dram_latency = mem.dram_latency_cycles
        self.prefetcher = (
            StridePrefetcher() if mem.l2.prefetcher == "stride" else None
        )
        self.dram_accesses = 0

    # -- data side -------------------------------------------------------------
    def data_access(self, address: int, pc: int = 0) -> AccessResult:
        """Charge a data-side access; returns latencies and hit levels."""
        l1_hit, _ = self.l1d.access(address)
        if l1_hit:
            return AccessResult(self.config.l1d.hit_latency_cycles, True, True, False)
        l2_hit, _ = self.l2.access(address)
        latency = self.config.l1d.hit_latency_cycles + self.config.l2.hit_latency_cycles
        dram = False
        if not l2_hit:
            latency += self.dram_latency
            self.dram_accesses += 1
            dram = True
        if self.prefetcher is not None:
            for prefetch_address in self.prefetcher.observe(pc, address):
                if 0 <= prefetch_address and not self.l2.lookup(prefetch_address):
                    self.l2.fill(prefetch_address, prefetch=True)
        return AccessResult(latency, False, l2_hit, dram)

    # -- instruction side ----------------------------------------------------------
    def fetch_access(self, address: int) -> int:
        """Charge an instruction fetch; returns latency in cycles."""
        l1_hit, _ = self.l1i.access(address)
        if l1_hit:
            return self.config.l1i.hit_latency_cycles
        l2_hit, _ = self.l2.access(address)
        latency = self.config.l1i.hit_latency_cycles + self.config.l2.hit_latency_cycles
        if not l2_hit:
            latency += self.dram_latency
            self.dram_accesses += 1
        return latency

    def reset_stats(self) -> None:
        self.l1i.stats.reset()
        self.l1d.stats.reset()
        self.l2.stats.reset()
        self.dram_accesses = 0


# Typing helper: anything with a ``memory`` attribute of MemoryConfig shape.
class SystemConfigLike:  # pragma: no cover - structural typing aid
    memory: object
