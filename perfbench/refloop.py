"""Fixed reference loop that measures how fast the host runs right now.

The host's speed drifts by tens of percent within seconds, and CPU time
drifts with it, so raw seconds are not comparable between runs.  Every
measured piece of work is followed by slices of this loop, and its
seconds are rescaled by ``NOMINAL_SLICE_S / median slice`` (see
:func:`speed`): a normalized time reads as seconds on a host that runs
one slice in exactly ``NOMINAL_SLICE_S``.

The loop is pure Python in the simulator's own idiom -- integer
arithmetic with masking, array and dict access, and method calls on a
slotted object -- over a working set of a few MiB touched in a
pseudo-random order.  The working set matters: the simulator's tables
do not fit in the private caches, and a loop over a few cache-resident
objects speeds up and slows down differently from it when neighbours
load the shared caches.  Over identical simulator operations on a busy
2-CPU host, dividing ~6 s blocks of work by the median slice of the
block left a 4-5 % spread with this working set and 8-11 % with a 64
entry one (14-17 % raw).

It is fixed benchmark code: changing it, or ``NOMINAL_SLICE_S``,
changes every normalized number and needs a new baseline.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from array import array
from typing import List, Optional, Sequence, Tuple

#: Seconds one slice takes at the nominal host speed.  Pinned: it is the
#: unit every normalized time is expressed in.
NOMINAL_SLICE_S = 0.020

#: Iterations in one slice, and the working set they range over.
SLICE_ITERATIONS = 24_000
WORKING_SET = 1 << 16

#: Checksum of a process's first slice; a mismatch means the loop changed.
FIRST_SLICE_CHECKSUM = 14254628


class _Mixer:
    __slots__ = ("values",)

    def __init__(self, values: array) -> None:
        self.values = values

    def bump(self, index: int, delta: int) -> int:
        value = (self.values[index] * 3 + delta) & 0xFFFFFFFF
        self.values[index] = value
        return value


_state: Optional[Tuple[_Mixer, dict, array]] = None


def _working_set() -> Tuple[_Mixer, dict, array]:
    # Arrays and an int-only dict: none of it is tracked by the cyclic
    # garbage collector, so the loop adds nothing to the simulator's
    # collection pauses.
    global _state
    if _state is None:
        keys = array("Q", ((i * 2654435761) & 0xFFFFFFFF for i in range(WORKING_SET)))
        table = dict(zip(keys, range(WORKING_SET)))
        _state = (_Mixer(array("Q", range(WORKING_SET))), table, keys)
    return _state


def _slice() -> int:
    mixer, table, keys = _working_set()
    mask = WORKING_SET - 1
    acc = 0
    for i in range(SLICE_ITERATIONS):
        value = mixer.bump((i * 40503 + acc) & mask, i)
        acc = (acc + table[keys[value & mask]] + (value >> 5)) & 0xFFFFFF
    return acc


_checked = False


def reference_slice() -> float:
    """Run one slice; return its host seconds."""
    global _checked
    if not _checked:
        _working_set()
    start = time.perf_counter()
    checksum = _slice()
    elapsed = time.perf_counter() - start
    if not _checked:
        if checksum != FIRST_SLICE_CHECKSUM:
            raise RuntimeError(f"reference loop checksum {checksum} changed")
        _checked = True
    return elapsed


def parallel_slices(processes: int, count: int) -> List[float]:
    """``count`` slices in each of ``processes`` forked processes at once.

    Work spread over several processes (a campaign's workers) is timed
    against slices run with the same parallelism: the speed of one
    process with the other CPUs idle does not follow it.
    """
    _working_set()  # built once here, shared copy-on-write
    children = []
    for _ in range(processes):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child process
            try:
                os.close(read_end)
                times = [reference_slice() for _ in range(count)]
                os.write(write_end, json.dumps(times).encode("ascii"))
            finally:
                os._exit(0)
        os.close(write_end)
        children.append((pid, read_end))
    slices: List[float] = []
    for pid, read_end in children:
        with os.fdopen(read_end, "rb") as pipe:
            data = pipe.read()
        os.waitpid(pid, 0)
        slices.extend(json.loads(data))
    return slices


def speed(slices: Sequence[float]) -> float:
    """Host speed relative to nominal: multiply raw seconds by it."""
    return NOMINAL_SLICE_S / statistics.median(slices)
