"""Per-chip, spatially correlated SRAM bit-cell fault maps.

The paper's injection framework (section V-A, :mod:`repro.faults.models`)
draws *memoryless* geometric arrivals: every targeted operation faults
independently with one global probability.  Measured reduced-voltage
SRAM behaves nothing like that.  MoRS (arXiv 2110.05855) and Soyturk et
al. (arXiv 1912.00154) characterise real chips below Vmin and find
per-bit failures that are

* **persistent** — the same cell fails on every access at the same
  voltage, run after run;
* **spatially clustered** — weak cells bunch along rows and columns
  (shared wordline/bitline weaknesses), not uniformly;
* **chip-dependent** — process variation gives every die its own map
  and its own effective Vmin.

This module supplies that topology for the three structures ParaDox
exposes to reduced voltage: the checker cores' register files, the
load-store log SRAM, and the L1 data-cache data array.

A *chip* is a seeded sample from the process-variation model:
:func:`generate_chip_map` expands a ``chip_seed`` into one
:class:`ChipFaultMap` holding every weak cell with its per-cell minimum
functional voltage (Vmin).  Generation modes:

* ``"mors"`` — MoRS-style: a configurable fraction of weak cells lie in
  row/column runs sharing a cluster id and a correlated Vmin; the rest
  are isolated background cells.
* ``"uniform"`` — ablation baseline: the same expected cell count and
  Vmin distribution, but positions drawn uniformly with no clustering.

:class:`SramFaultModel` consumes the map plus the *current supply
voltage*: a weak cell is **active** exactly when the supply is below its
Vmin, so a DVFS voltage change is a map **re-thresholding**, not a rate
change.  All randomness is spent at map-generation time; whether a read
corrupts — and which bits flip — is afterwards a pure function of the
touched address and the voltage.  Faults are therefore persistent and
address-correlated: the same access pattern at the same voltage fails
identically on every run, every retry, and every ``--jobs`` width.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..isa.registers import FLAGS_SLOT, REG_ZERO
from ..isa.state import ArchState
from ..lslog.segment import LogSegment
from .models import FaultDomain, FaultModel

__all__ = [
    "GENERATION_MODES",
    "ChipFaultMap",
    "SramFaultModel",
    "SramMapConfig",
    "SramStructure",
    "StructureMap",
    "WeakCell",
    "generate_chip_map",
    "sram_injector",
]

#: Supported map-generation modes (see module docstring).
GENERATION_MODES = ("mors", "uniform")


class SramStructure(enum.Enum):
    """Undervolted SRAM arrays the paper exposes to reduced voltage."""

    #: Per-checker architectural register file: 32 int + 32 fp rows of
    #: 64 bits.  A weak cell corrupts the destination register of every
    #: instruction that writes its row while the cell is active.
    CHECKER_REGFILE = "regfile"
    #: Per-checker load-store log slice (6 KiB = 768 words).  Loads fill
    #: value words from the bottom (word ``2i + 1`` for load ``i``),
    #: stores from the top (word ``capacity - 2 - 2j`` for store ``j``);
    #: address words are compared, not forwarded, so only value-word
    #: cells corrupt data.
    LOAD_STORE_LOG = "lslog"
    #: Shared L1 data array, direct line-indexed by memory address.
    CACHE_DATA = "cache"


#: Stable per-structure stream index: seeds the per-instance RNG so maps
#: are independent across structures and order-independent to generate.
_STRUCT_STREAM: Dict[SramStructure, int] = {
    SramStructure.CHECKER_REGFILE: 1,
    SramStructure.LOAD_STORE_LOG: 2,
    SramStructure.CACHE_DATA: 3,
}


@dataclass(frozen=True)
class WeakCell:
    """One marginal bit cell."""

    row: int
    col: int
    #: Minimum functional supply voltage: the cell reads wrong whenever
    #: the supply drops strictly below this.
    vmin: float
    #: MoRS cluster the cell belongs to (0 = isolated background cell).
    cluster: int


@dataclass(frozen=True)
class SramMapConfig:
    """Process-variation parameters of the map generator."""

    # -- geometries (defaults match the table-1 system configuration) --
    regfile_rows: int = 64
    regfile_cols: int = 64
    #: 6 KiB per-checker log slice / 8-byte words.
    log_words: int = 768
    #: 32 KiB L1D / 64-byte lines.
    cache_lines: int = 512
    cache_line_bits: int = 512
    #: Expected weak cells as a fraction of each instance's bit count.
    weak_cell_rate: float = 3e-4
    #: Population mean of the weak-cell Vmin distribution (volts); sits
    #: just above the transient model's error cliff so the two regimes
    #: overlap across the paper's sweep range.
    mean_vmin: float = 0.96
    #: Per-cell Vmin spread for isolated cells.
    sigma_cell: float = 0.02
    #: Chip-to-chip shift of the whole Vmin distribution (the chip-seed
    #: axis samples this).
    sigma_chip: float = 0.012
    #: Manufacturer screening: cells with Vmin above this were binned
    #: out at test, so every chip is clean at nominal voltage.
    vmin_cap: float = 1.02
    #: Fraction of weak cells placed in row/column clusters (mors mode).
    cluster_fraction: float = 0.7
    #: Mean run length of a cluster along its row/column.
    mean_cluster_len: float = 6.0
    #: Cluster-centre Vmin spread (clusters share a wordline/bitline
    #: weakness, so their cells are correlated).
    sigma_cluster: float = 0.015
    #: Within-cluster per-cell Vmin spread.
    sigma_within_cluster: float = 0.004


@dataclass(frozen=True)
class StructureMap:
    """Weak cells of one structure instance, sorted weakest-first."""

    structure: SramStructure
    instance: int
    rows: int
    cols: int
    cells: Tuple[WeakCell, ...]

    def failing_cells(self, voltage: float) -> List[WeakCell]:
        """Cells active (failing) at ``voltage``."""
        return [cell for cell in self.cells if voltage < cell.vmin]

    def failing_count(self, voltage: float) -> int:
        return sum(1 for cell in self.cells if voltage < cell.vmin)


@dataclass(frozen=True)
class ChipFaultMap:
    """One simulated die: every weak cell of every modelled structure."""

    chip_seed: int
    mode: str
    #: Chip-wide Vmin shift sampled from the process-variation model.
    chip_offset_v: float
    structures: Dict[Tuple[SramStructure, int], StructureMap] = field(
        default_factory=dict
    )

    @property
    def total_cells(self) -> int:
        return sum(len(m.cells) for m in self.structures.values())

    def failing_count(self, voltage: float) -> int:
        """Active weak cells across the whole chip at ``voltage``."""
        return sum(m.failing_count(voltage) for m in self.structures.values())

    def instances(self, structure: SramStructure) -> List[StructureMap]:
        return [
            m
            for (s, _inst), m in sorted(
                self.structures.items(), key=lambda kv: kv[0][1]
            )
            if s is structure
        ]


def _geometry(structure: SramStructure, config: SramMapConfig) -> Tuple[int, int]:
    if structure is SramStructure.CHECKER_REGFILE:
        return config.regfile_rows, config.regfile_cols
    if structure is SramStructure.LOAD_STORE_LOG:
        return config.log_words, 64
    return config.cache_lines, config.cache_line_bits


def _place(
    cells: Dict[Tuple[int, int], WeakCell],
    row: int,
    col: int,
    vmin: float,
    cluster: int,
    config: SramMapConfig,
) -> None:
    vmin = float(min(vmin, config.vmin_cap))
    existing = cells.get((row, col))
    # Overlapping draws collapse to one cell; the weakest wins.
    if existing is None or vmin > existing.vmin:
        cells[(row, col)] = WeakCell(row, col, vmin, cluster)


def _generate_structure(
    chip_seed: int,
    structure: SramStructure,
    instance: int,
    mode: str,
    config: SramMapConfig,
    chip_offset: float,
) -> StructureMap:
    rows, cols = _geometry(structure, config)
    rng = np.random.default_rng(
        [int(chip_seed), _STRUCT_STREAM[structure], int(instance)]
    )
    count = int(rng.poisson(rows * cols * config.weak_cell_rate))
    cells: Dict[Tuple[int, int], WeakCell] = {}
    mean = config.mean_vmin + chip_offset

    clustered = int(round(count * config.cluster_fraction)) if mode == "mors" else 0
    cluster_id = 0
    placed = 0
    while placed < clustered:
        cluster_id += 1
        along_row = bool(rng.integers(2))
        length = 1 + int(rng.geometric(1.0 / config.mean_cluster_len))
        base = mean + float(rng.normal(0.0, config.sigma_cluster))
        row = int(rng.integers(rows))
        col = int(rng.integers(cols))
        for k in range(length):
            if along_row:
                position = (row, (col + k) % cols)
            else:
                position = ((row + k) % rows, col)
            vmin = base + float(rng.normal(0.0, config.sigma_within_cluster))
            _place(cells, position[0], position[1], vmin, cluster_id, config)
            placed += 1
            if placed >= clustered:
                break
    for _ in range(count - placed):
        row = int(rng.integers(rows))
        col = int(rng.integers(cols))
        vmin = mean + float(rng.normal(0.0, config.sigma_cell))
        _place(cells, row, col, vmin, 0, config)

    ordered = tuple(
        sorted(cells.values(), key=lambda c: (-c.vmin, c.row, c.col))
    )
    return StructureMap(structure, instance, rows, cols, ordered)


def generate_chip_map(
    chip_seed: int,
    checkers: int = 16,
    mode: str = "mors",
    config: Optional[SramMapConfig] = None,
) -> ChipFaultMap:
    """Sample one simulated die from the process-variation model.

    The map is a pure function of ``(chip_seed, checkers, mode,
    config)``: regenerating it in another process yields bit-identical
    cells, which is what makes campaign runs reproducible at any
    ``--jobs`` width.
    """
    if mode not in GENERATION_MODES:
        raise ValueError(
            f"unknown generation mode {mode!r}; choose from {GENERATION_MODES}"
        )
    if chip_seed < 0:
        raise ValueError(f"chip_seed must be non-negative, got {chip_seed}")
    config = config if config is not None else SramMapConfig()
    chip_rng = np.random.default_rng([int(chip_seed), 0])
    chip_offset = float(chip_rng.normal(0.0, config.sigma_chip))
    structures: Dict[Tuple[SramStructure, int], StructureMap] = {}
    for instance in range(checkers):
        for structure in (
            SramStructure.CHECKER_REGFILE,
            SramStructure.LOAD_STORE_LOG,
        ):
            structures[(structure, instance)] = _generate_structure(
                chip_seed, structure, instance, mode, config, chip_offset
            )
    structures[(SramStructure.CACHE_DATA, 0)] = _generate_structure(
        chip_seed, SramStructure.CACHE_DATA, 0, mode, config, chip_offset
    )
    return ChipFaultMap(int(chip_seed), mode, chip_offset, structures)


#: instance -> row -> (xor mask over the 64-bit word, cells on the row).
_ActiveIndex = Dict[int, Dict[int, Tuple[int, Tuple[WeakCell, ...]]]]


class SramFaultModel(FaultModel):
    """Persistent, address-correlated faults from one chip's bit-cell map.

    One instance models one :class:`SramStructure` across all of the
    chip's per-checker copies; :func:`sram_injector` composes the full
    set.  The model is *deterministic at fire time*: it draws nothing
    from its RNG, so results cannot depend on process or scheduling
    interleavings.  ``set_rate`` is a no-op (the voltage→rate coupling
    of the transient models does not apply); the engine instead calls
    :meth:`on_voltage` whenever the DVFS controller moves the supply,
    which re-thresholds the map — cells with Vmin above the new supply
    become active, the rest heal.
    """

    persistent = True

    def __init__(
        self,
        chip_map: ChipFaultMap,
        structure: SramStructure,
        voltage: float = 1.1,
    ) -> None:
        # The arrival process is unused: rate 0, firing is a pure
        # function of map, address, and voltage.
        super().__init__(0.0, np.random.default_rng(chip_map.chip_seed))
        self.chip_map = chip_map
        self.structure = structure
        self.domain = (
            FaultDomain.INSTRUCTIONS
            if structure is SramStructure.CHECKER_REGFILE
            else FaultDomain.LOADS
        )
        self._maps: Dict[int, StructureMap] = {
            inst: m
            for (s, inst), m in chip_map.structures.items()
            if s is structure
        }
        self._instance: Optional[int] = (
            0 if structure is SramStructure.CACHE_DATA else None
        )
        self._voltage: Optional[float] = None
        self._active: _ActiveIndex = {}
        #: Active (failing) cells across all instances at the current
        #: voltage; 0 means the structure is fault-free right now.
        self.active_cell_count = 0
        #: Most recent firing cell, surfaced in telemetry details.
        self.last_fired_cell: Optional[WeakCell] = None
        self.on_voltage(voltage)

    # -- voltage thresholding ---------------------------------------------------
    @property
    def voltage(self) -> Optional[float]:
        return self._voltage

    def set_rate(self, rate: float) -> None:
        """Map-based faults follow the voltage, not the transient rate."""

    def on_voltage(self, voltage: float) -> bool:
        """Re-threshold the map against a new supply voltage."""
        voltage = float(voltage)
        if self._voltage is not None and voltage == self._voltage:
            return False
        self._voltage = voltage
        active: _ActiveIndex = {}
        count = 0
        for instance, smap in self._maps.items():
            failing = smap.failing_cells(voltage)
            if not failing:
                continue
            count += len(failing)
            by_row: Dict[int, List[WeakCell]] = {}
            for cell in failing:
                by_row.setdefault(cell.row, []).append(cell)
            active[instance] = {
                row: (
                    self._row_mask(row_cells),
                    tuple(row_cells),
                )
                for row, row_cells in by_row.items()
            }
        self._active = active
        self.active_cell_count = count
        return True

    def _row_mask(self, cells: List[WeakCell]) -> int:
        # Only meaningful for 64-bit-word structures; the cache data
        # array windows its 512-bit rows per access instead.
        if self.structure is SramStructure.CACHE_DATA:
            return 0
        mask = 0
        for cell in cells:
            mask |= 1 << cell.col
        return mask

    # -- injector plumbing ------------------------------------------------------
    def begin_check(self, core_id: Optional[int]) -> None:
        if self.structure is not SramStructure.CACHE_DATA:
            self._instance = core_id

    def may_fire_in_segment(self, segment: LogSegment, count: int) -> bool:
        """Exact fast-path veto: could any active cell touch this segment?

        Must never return False when a fault could fire during replay —
        the engine would skip the replay entirely.  The load-store log
        and cache checks are exact (they test the very rows/lines the
        replay will read); the register-file check is conservative (any
        register-writing instruction may land on a weak row).
        """
        if self.active_cell_count == 0:
            return False
        active = self._active.get(self._instance)  # type: ignore[arg-type]
        if not active:
            return False
        if self.structure is SramStructure.CHECKER_REGFILE:
            return any(segment.unit_dest_counts)
        if self.structure is SramStructure.LOAD_STORE_LOG:
            words = self._maps[self._instance].rows  # type: ignore[index]
            for row in active:
                if row % 2 == 1 and (row - 1) // 2 < segment.load_count:
                    return True  # load-lane value word in use
                if row % 2 == 0 and 0 <= words - 2 - row:
                    if (words - 2 - row) // 2 < segment.store_count:
                        return True  # store-lane value word in use
            return False
        # CACHE_DATA: exact per-address check over the segment's loads.
        lines = self._maps[0].rows
        for address, _value in segment.loads:
            entry = active.get((address >> 6) % lines)
            if entry is not None and self._window_mask(address, entry[1]):
                return True
        return False

    # -- fire hooks -------------------------------------------------------------
    def on_instruction(self, state: ArchState, unit: int, slot: int) -> bool:
        if self.structure is not SramStructure.CHECKER_REGFILE:
            return False
        active = self._active.get(self._instance)  # type: ignore[arg-type]
        # Rows 1-47 hold x1-x31 and f0-f15 and are numbered like their
        # register slots; x0 is hard-wired zero and the flags live in
        # latches, not the SRAM array.
        if not active or not REG_ZERO < slot < FLAGS_SLOT:
            return False
        entry = active.get(slot)
        if entry is None:
            return False
        mask, cells = entry
        regs = state.regs
        regs.write_slot(slot, regs.read_slot(slot) ^ mask)
        self.last_fired_cell = cells[0]
        return True

    def on_load(self, op_index: int, address: int, value: int) -> "tuple[int, bool]":
        if self.structure is SramStructure.LOAD_STORE_LOG:
            active = self._active.get(self._instance)  # type: ignore[arg-type]
            if not active:
                return value, False
            entry = active.get(2 * op_index + 1)
            if entry is None:
                return value, False
            mask, cells = entry
            self.last_fired_cell = cells[0]
            return value ^ mask, True
        if self.structure is SramStructure.CACHE_DATA:
            active = self._active.get(0)
            if not active:
                return value, False
            entry = active.get((address >> 6) % self._maps[0].rows)
            if entry is None:
                return value, False
            mask = self._window_mask(address, entry[1])
            if not mask:
                return value, False
            offset_bits = (address % 64) * 8
            for cell in entry[1]:
                if offset_bits <= cell.col < offset_bits + 64:
                    self.last_fired_cell = cell
                    break
            return value ^ mask, True
        return value, False

    def on_store(self, op_index: int, address: int, value: int) -> "tuple[int, bool]":
        if self.structure is not SramStructure.LOAD_STORE_LOG:
            return value, False
        active = self._active.get(self._instance)  # type: ignore[arg-type]
        if not active:
            return value, False
        row = self._maps[self._instance].rows - 2 - 2 * op_index  # type: ignore[index]
        entry = active.get(row) if row >= 0 else None
        if entry is None:
            return value, False
        mask, cells = entry
        self.last_fired_cell = cells[0]
        return value ^ mask, True

    def _window_mask(self, address: int, cells: Tuple[WeakCell, ...]) -> int:
        """XOR mask of active line cells overlapping the 64-bit access."""
        offset_bits = (address % 64) * 8
        mask = 0
        for cell in cells:
            if offset_bits <= cell.col < offset_bits + 64:
                mask |= 1 << (cell.col - offset_bits)
        return mask

    # -- diagnostics ------------------------------------------------------------
    def describe(self) -> str:
        voltage = self._voltage if self._voltage is not None else float("nan")
        return (
            f"sram {self.structure.value} map (chip {self.chip_map.chip_seed}, "
            f"{self.chip_map.mode}): {self.active_cell_count} cell(s) failing "
            f"at {voltage:.3f} V"
        )

    def describe_last_fire(self) -> Optional[str]:
        cell = self.last_fired_cell
        if cell is None:
            return None
        return (
            f"cell={cell.row},{cell.col} cluster={cell.cluster} "
            f"vmin={cell.vmin:.3f}"
        )


def sram_injector(
    chip_seed: int,
    checkers: int = 16,
    mode: str = "mors",
    voltage: float = 1.1,
    config: Optional[SramMapConfig] = None,
    target: str = "checker",
):
    """One injector carrying a full chip's worth of SRAM fault models."""
    from .injector import FaultInjector

    chip_map = generate_chip_map(chip_seed, checkers=checkers, mode=mode, config=config)
    models = [
        SramFaultModel(chip_map, structure, voltage=voltage)
        for structure in SramStructure
    ]
    return FaultInjector(models, target=target)
