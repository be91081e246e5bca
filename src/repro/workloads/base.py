"""Workload abstraction.

A :class:`Workload` couples a program with its initial memory image and a
default useful-instruction budget.  ``create_memory()`` returns a *fresh*
image per run, so repeated simulations are independent; the initial
words are treated as immutable once the first image has been made.

:func:`golden_run` executes a workload functionally (no timing, no
checking, no faults) and returns the reference final state — the oracle
for every correctness test: whatever the fault schedule, a ParaMedic or
ParaDox run must end in exactly this state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa import ArchState, Executor, MemoryImage, Program


@dataclass
class Workload:
    """A runnable benchmark: program + initial data + budget."""

    name: str
    program: Program
    #: Initial memory contents, word address -> 64-bit value.
    initial_words: Dict[int, int] = field(default_factory=dict)
    #: Default cap on useful (committed) instructions per run.
    max_instructions: int = 1_000_000
    #: "compute", "memory", or "mixed" — documentation only.
    category: str = "mixed"
    #: Free-form description shown by the experiment harnesses.
    description: str = ""

    #: ``initial_words`` as validated by the first :meth:`create_memory`
    #: (the same dict unless some value needed masking).
    _image: Optional[Dict[int, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def create_memory(self) -> MemoryImage:
        """A fresh image of the initial words, for one run.

        The words are validated and masked once per workload; every run
        then copies the result, sharing its int objects.
        """
        memory = MemoryImage()
        image = self._image
        if image is None:
            image = self._image = memory.validated(self.initial_words)
        memory.words.update(image)
        return memory


@dataclass
class GoldenResult:
    """Reference outcome of a functional run."""

    state: ArchState
    memory: MemoryImage
    instructions: int
    output: List[Tuple[int, str]]


def golden_run(workload: Workload, max_instructions: int = 0) -> GoldenResult:
    """Run ``workload`` functionally to completion; the correctness oracle.

    Always pure interpretation: golden runs are the reference the
    compiled tier is checked *against*, so they never share its path.
    """
    budget = max_instructions or workload.max_instructions
    memory = workload.create_memory()
    state = ArchState()
    retired = Executor(workload.program, state, memory).run(budget)
    return GoldenResult(state, memory, retired, list(state.output))
