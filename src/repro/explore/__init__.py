"""Evolutionary design-space exploration over the ParaDox config space.

The paper hand-picks its configuration — 16 checkers, AIMD constants,
checkpoint-length policy, the voltage floor — yet its central claim is
a multi-objective trade-off over exactly that space.  This package
searches it (``repro explore``):

* :mod:`repro.explore.genome` — the gene table (every knob, range, and
  paper default), content-addressed genome keys, and the seeded
  crossover/mutation operators.
* :mod:`repro.explore.archive` — NSGA-II machinery: fast non-dominated
  sorting, crowding distance, survivor selection, exact 3-D
  hypervolume.
* :mod:`repro.explore.fitness` — campaign records → the (energy,
  slowdown, failure-rate) objective vector, via the power model and the
  six-outcome taxonomy.
* :mod:`repro.explore.loop` — the deterministic generation loop; each
  genome is scored by a small campaign through the ``repro.parallel``
  fan-out and persisted in the PR 8 store, so re-encounters are store
  hits and interrupted searches resume generation-exactly.

The canonical JSON Pareto report is :meth:`ExploreResult.to_dict`; the
HTML page (front scatter, hypervolume trend, per-genome drill-down) is
rendered by :mod:`repro.viz`.

See ``docs/EXPLORE.md`` for the encoding table, the fitness formulas,
and a worked end-to-end example.
"""

from .archive import (
    crowding_distances,
    dominates,
    hypervolume,
    non_dominated_sort,
    pareto_front_indices,
    select_survivors,
)
from .fitness import (
    HYPERVOLUME_REFERENCE,
    OBJECTIVE_NAMES,
    PENALTY,
    baseline_wall_ns,
    objective_vector,
    objectives_from_records,
)
from .genome import (
    GENES,
    GENOME_IDENTITY,
    Gene,
    Genome,
    crossover,
    genome_key,
    mutate,
    paper_default_genome,
    random_genome,
    repair,
)
from .loop import (
    EXPLORE_IDENTITY,
    Evaluation,
    ExploreResult,
    ExploreSpec,
    explore_key,
    run_explore,
)

__all__ = [
    "EXPLORE_IDENTITY",
    "Evaluation",
    "ExploreResult",
    "ExploreSpec",
    "GENES",
    "GENOME_IDENTITY",
    "Gene",
    "Genome",
    "HYPERVOLUME_REFERENCE",
    "OBJECTIVE_NAMES",
    "PENALTY",
    "baseline_wall_ns",
    "crossover",
    "crowding_distances",
    "dominates",
    "explore_key",
    "genome_key",
    "hypervolume",
    "mutate",
    "non_dominated_sort",
    "objective_vector",
    "objectives_from_records",
    "paper_default_genome",
    "pareto_front_indices",
    "random_genome",
    "repair",
    "run_explore",
    "select_survivors",
]
