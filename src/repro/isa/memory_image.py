"""Architectural data memory.

A flat, word-granular (8-byte) data segment.  The simulator keeps *one*
memory image per system: the main core reads and writes it through a
logging port, checker cores never touch it (they read the load-store log
instead), and rollback restores words or whole cache lines into it.

Words are stored sparsely in a dict keyed by word-aligned byte address;
untouched memory reads as zero, as in gem5's functional memories.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

from .errors import MemoryAlignmentTrap, MemoryBoundsTrap
from .registers import MASK64, bits_to_float, float_to_bits

WORD_BYTES = 8
#: Cache-line size used throughout the hierarchy (and for ParaDox's
#: line-granularity rollback).
LINE_BYTES = 64
WORDS_PER_LINE = LINE_BYTES // WORD_BYTES


def check_word_aligned(address: int) -> None:
    if address % WORD_BYTES:
        raise MemoryAlignmentTrap(address)


def line_address(address: int) -> int:
    """Return the address of the cache line containing ``address``."""
    return address & ~(LINE_BYTES - 1)


class MemoryImage:
    """Sparse word-addressed memory with a bounded data segment."""

    __slots__ = ("words", "size")

    def __init__(self, size: int = 1 << 24) -> None:
        #: Size of the mapped data segment in bytes.
        self.size = size
        self.words: Dict[int, int] = {}

    def _check(self, address: int) -> None:
        check_word_aligned(address)
        if not 0 <= address < self.size:
            raise MemoryBoundsTrap(address)

    def load(self, address: int) -> int:
        """Load the 64-bit word at ``address`` (zero if never written)."""
        self._check(address)
        return self.words.get(address, 0)

    def store(self, address: int, value: int) -> None:
        """Store the 64-bit ``value`` at word-aligned ``address``."""
        self._check(address)
        self.words[address] = value & MASK64

    def validated(self, words: Dict[int, int]) -> Dict[int, int]:
        """``words`` checked against this image and masked to 64 bits.

        Raises the precise trap for a misaligned or out-of-range
        address.  Returns ``words`` itself when every value already fits
        in 64 bits, so an image built from it shares its int objects
        instead of holding masked copies.  (Any other value, a bool
        say, is masked to a plain int like :meth:`store` would.)
        """
        size = self.size
        for address in words:
            if address % WORD_BYTES or not 0 <= address < size:
                self._check(address)  # raises the precise trap
        if all(
            type(value) is int and 0 <= value <= MASK64 for value in words.values()
        ):
            return words
        return {address: value & MASK64 for address, value in words.items()}

    # -- float convenience ---------------------------------------------------
    def load_float(self, address: int) -> float:
        return bits_to_float(self.load(address))

    def store_float(self, address: int, value: float) -> None:
        self.store(address, float_to_bits(value))

    # -- bulk access for workload setup and verification ----------------------
    def write_words(self, address: int, values: Iterable[int]) -> None:
        """Store consecutive words starting at ``address``.

        Bounds/alignment are validated once per run, not per word, so
        workload memory construction (hundreds of thousands of words) is
        one dict update instead of that many checked stores.
        """
        values = list(values)
        if not values:
            return
        self._check(address)
        last = address + (len(values) - 1) * WORD_BYTES
        if not 0 <= last < self.size:
            raise MemoryBoundsTrap(last)
        self.words.update(
            (address + offset * WORD_BYTES, value & MASK64)
            for offset, value in enumerate(values)
        )

    def read_words(self, address: int, count: int) -> List[int]:
        return [self.load(address + i * WORD_BYTES) for i in range(count)]

    def write_floats(self, address: int, values: Iterable[float]) -> None:
        self.write_words(address, (float_to_bits(v) for v in values))

    def read_floats(self, address: int, count: int) -> List[float]:
        return [bits_to_float(w) for w in self.read_words(address, count)]

    # -- line access for rollback ----------------------------------------------
    def read_line(self, address: int) -> Tuple[int, ...]:
        """Return the ``WORDS_PER_LINE`` words of the line at ``address``."""
        base = line_address(address)
        return tuple(self.words.get(base + i * WORD_BYTES, 0) for i in range(WORDS_PER_LINE))

    def write_line(self, address: int, words: Tuple[int, ...]) -> None:
        """Restore a full cache line captured by :meth:`read_line`."""
        base = line_address(address)
        for i, value in enumerate(words):
            if value:
                self.words[base + i * WORD_BYTES] = value
            else:
                self.words.pop(base + i * WORD_BYTES, None)

    # -- snapshots ---------------------------------------------------------------
    def snapshot(self) -> "MemoryImage":
        """Full copy, used only by tests and golden-run comparison."""
        copy = MemoryImage.__new__(MemoryImage)
        copy.size = self.size
        copy.words = dict(self.words)
        return copy

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryImage):
            return NotImplemented
        if self.size != other.size:
            return False
        if self.words == other.words:
            return True
        # An explicitly stored zero equals an untouched word.
        mine = {a: v for a, v in self.words.items() if v}
        theirs = {a: v for a, v in other.words.items() if v}
        return mine == theirs

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(sorted(self.words.items()))

    def __len__(self) -> int:
        return sum(1 for v in self.words.values() if v)
