"""SRAM bit-cell fault maps: generation, thresholding, fast-path veto,
engine integration, and seeded determinism."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    GENERATION_MODES,
    SramFaultModel,
    SramMapConfig,
    SramStructure,
    StuckAtFaultModel,
    default_injector,
    generate_chip_map,
    sram_injector,
)
from repro.isa import FunctionalUnit
from repro.isa.decode import UNIT_INDEX
from repro.isa.state import ArchState as State
from repro.lslog import LogSegment, RollbackGranularity
from repro.resilience.campaign import execute_run

#: Dense, weak-map config so small segments reliably intersect cells.
DENSE = SramMapConfig(weak_cell_rate=3e-3)


def make_segment(instructions=100, loads=10, stores=5, addr_stride=8):
    segment = LogSegment(
        seq=1,
        granularity=RollbackGranularity.LINE,
        capacity_bytes=1 << 20,
        start_state=State(),
    )
    for _ in range(instructions):
        segment.record_instruction(UNIT_INDEX[FunctionalUnit.INT_ALU], writes_register=True)
    for i in range(loads):
        segment.record_load(i * addr_stride, 0)
    for i in range(stores):
        segment.record_store(i * addr_stride, 1, 0)
    return segment


class TestMapGeneration:
    def test_same_chip_seed_identical_map(self):
        assert generate_chip_map(7).structures == generate_chip_map(7).structures

    def test_different_chip_seeds_differ(self):
        a, b = generate_chip_map(1), generate_chip_map(2)
        assert a.structures != b.structures

    def test_covers_all_three_structures(self):
        chip = generate_chip_map(3, checkers=4)
        structures = {s for s, _ in chip.structures}
        assert structures == set(SramStructure)
        # Per-checker structures have one instance per checker; the
        # cache data array is shared.
        assert len(chip.instances(SramStructure.CHECKER_REGFILE)) == 4
        assert len(chip.instances(SramStructure.LOAD_STORE_LOG)) == 4
        assert len(chip.instances(SramStructure.CACHE_DATA)) == 1

    def test_mors_mode_clusters_along_rows_or_columns(self):
        chip = generate_chip_map(5, config=DENSE)
        by_cluster = {}
        for (structure, instance), smap in chip.structures.items():
            for cell in smap.cells:
                if cell.cluster:
                    key = (structure, instance, cell.cluster)
                    by_cluster.setdefault(key, []).append(cell)
        assert by_cluster, "mors mode must produce clustered cells"
        multi = [cells for cells in by_cluster.values() if len(cells) > 1]
        assert multi, "at least one cluster should span several cells"
        for cells in multi:
            rows = {c.row for c in cells}
            cols = {c.col for c in cells}
            assert len(rows) == 1 or len(cols) == 1

    def test_uniform_mode_has_no_clusters(self):
        chip = generate_chip_map(5, mode="uniform", config=DENSE)
        assert all(
            cell.cluster == 0
            for smap in chip.structures.values()
            for cell in smap.cells
        )

    def test_vmin_capped_below_nominal(self):
        chip = generate_chip_map(11, config=DENSE)
        cap = DENSE.vmin_cap
        assert all(
            cell.vmin <= cap
            for smap in chip.structures.values()
            for cell in smap.cells
        )
        # Manufacturer screening: every chip is clean at nominal supply.
        assert chip.failing_count(1.1) == 0

    def test_failing_count_monotone_in_voltage(self):
        chip = generate_chip_map(9, config=DENSE)
        counts = [chip.failing_count(v) for v in (0.85, 0.92, 0.97, 1.02, 1.1)]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] == chip.total_cells  # far below every Vmin
        assert counts[-1] == 0

    def test_invalid_mode_and_seed_rejected(self):
        with pytest.raises(ValueError):
            generate_chip_map(1, mode="banana")
        with pytest.raises(ValueError):
            generate_chip_map(-1)

    def test_modes_exported(self):
        assert set(GENERATION_MODES) == {"mors", "uniform"}


class TestModelThresholding:
    def make_model(self, structure, voltage=1.1, seed=5):
        chip = generate_chip_map(seed, checkers=4, config=DENSE)
        return SramFaultModel(chip, structure, voltage=voltage)

    def test_nominal_voltage_no_active_cells(self):
        model = self.make_model(SramStructure.LOAD_STORE_LOG)
        assert model.active_cell_count == 0

    def test_on_voltage_rethresholds_and_reports_change(self):
        model = self.make_model(SramStructure.LOAD_STORE_LOG)
        assert model.on_voltage(0.85) is True
        low = model.active_cell_count
        assert low > 0
        assert model.on_voltage(0.85) is False  # unchanged supply
        assert model.on_voltage(1.1) is True  # cells heal on the way up
        assert model.active_cell_count == 0
        assert model.active_cell_count < low

    def test_set_rate_is_a_noop(self):
        model = self.make_model(SramStructure.CHECKER_REGFILE, voltage=0.85)
        before = model.active_cell_count
        model.set_rate(0.5)
        assert model.rate == 0.0 and model.active_cell_count == before

    def test_persistent_flag_and_enabled(self):
        injector = sram_injector(3, checkers=4, voltage=1.1, config=DENSE)
        assert all(model.persistent for model in injector.models)
        assert injector.enabled
        assert injector.persistent_descriptions()


class TestDeterministicCorruption:
    def test_load_corruption_is_a_pure_function(self):
        """Same chip seed, voltage, and access -> same corrupted value,
        across independently built models (i.e. across processes)."""
        outcomes = []
        for _ in range(2):
            chip = generate_chip_map(5, checkers=4, config=DENSE)
            model = SramFaultModel(
                chip, SramStructure.LOAD_STORE_LOG, voltage=0.85
            )
            model.begin_check(0)
            outcomes.append(
                [model.on_load_at(i, i * 8, 0xDEADBEEF) for i in range(64)]
            )
        assert outcomes[0] == outcomes[1]
        assert any(fired for _, fired in outcomes[0])

    def test_repeated_access_fails_identically(self):
        chip = generate_chip_map(5, checkers=4, config=DENSE)
        model = SramFaultModel(chip, SramStructure.CACHE_DATA, voltage=0.85)
        results = {model.on_load_at(0, 4096, 77) for _ in range(10)}
        assert len(results) == 1  # persistent: no per-access randomness

    def test_instance_routing_follows_begin_check(self):
        chip = generate_chip_map(5, checkers=4, config=DENSE)
        model = SramFaultModel(chip, SramStructure.LOAD_STORE_LOG, voltage=0.85)
        per_checker = []
        for core_id in range(4):
            model.begin_check(core_id)
            per_checker.append(
                tuple(model.on_load_at(i, i * 8, 0) for i in range(64))
            )
        assert len(set(per_checker)) > 1  # each checker has its own map
        model.begin_check(None)  # main core: checker structures inert
        assert all(
            not fired for _, fired in (model.on_load_at(i, i * 8, 0) for i in range(64))
        )


class TestFastPathVeto:
    """Satellite: persistent models must never let the fast path skip a
    segment in which they could fire."""

    @settings(max_examples=40, deadline=None)
    @given(
        chip_seed=st.integers(0, 50),
        loads=st.integers(0, 80),
        stores=st.integers(0, 40),
        voltage=st.sampled_from([0.85, 0.92, 0.96, 1.0, 1.1]),
    )
    def test_sram_never_skips_a_firing_segment(
        self, chip_seed, loads, stores, voltage
    ):
        injector = sram_injector(
            chip_seed, checkers=4, voltage=voltage, config=DENSE
        )
        segment = make_segment(instructions=10, loads=loads, stores=stores)
        injector.begin_check(0, segment)
        if not injector.fires_within_segment(segment):
            # The veto said "cannot fire": replaying every logged
            # operation must corrupt nothing.
            for model in injector.models:
                for i in range(loads):
                    _, fired = model.on_load_at(i, segment.loads[i][0], 0)
                    assert not fired
                for j in range(stores):
                    _, fired = model.on_store_at(j, segment.store_addrs[j], 0)
                    assert not fired
            injector.skip_segment(segment)  # must not raise

    def test_stuckat_never_skipped_when_unit_in_segment(self):
        injector = default_injector(0.0, models=("stuckat",))
        assert isinstance(injector.models[0], StuckAtFaultModel)
        segment = make_segment(instructions=10, loads=0, stores=0)
        injector.begin_check(0, segment)
        assert injector.fires_within_segment(segment)
        # A segment with no register-writing INT_ALU instructions is
        # skippable even for a permanent defect.
        empty = LogSegment(
            seq=2,
            granularity=RollbackGranularity.LINE,
            capacity_bytes=1 << 20,
            start_state=State(),
        )
        empty.record_instruction(UNIT_INDEX[FunctionalUnit.LOAD], writes_register=False)
        injector.begin_check(0, empty)
        assert not injector.fires_within_segment(empty)

    def test_clean_structures_keep_the_fast_path(self):
        """At nominal voltage no cell is active, so every segment skips:
        the sram models must not cost the fast path anything."""
        injector = sram_injector(3, checkers=4, voltage=1.1, config=DENSE)
        segment = make_segment()
        injector.begin_check(0, segment)
        assert not injector.fires_within_segment(segment)
        injector.skip_segment(segment)
        assert injector.stats.segments_skipped == 1


class TestEngineIntegration:
    BASE = {
        "run_id": 0,
        "workload": "bitcount",
        "scale": 0.2,
        "seed": 1,
        "rate": 1e-4,
        "model": "sram",
        "dvs": True,
        "initial_margin": 0.15,
        "chip_seed": 0,
    }

    def test_undervolted_run_detects_and_recovers(self):
        result = execute_run(dict(self.BASE))
        assert result["status"] == "ok"
        assert result["outcome"] in (
            "completed",
            "livelock",
            "forward_progress_failure",
        )
        if result["outcome"] == "completed":
            assert result["matches_golden"]

    def test_same_chip_seed_identical_results(self):
        a = execute_run(dict(self.BASE))
        b = execute_run(dict(self.BASE))
        for key in (
            "outcome",
            "matches_golden",
            "recoveries",
            "faults_injected",
            "instructions",
        ):
            assert a[key] == b[key]

    def test_fault_free_at_nominal_voltage(self):
        """The diffcheck gate in test form: an sram run with the supply
        pinned at the safe point injects nothing and stays bit-identical
        to the golden (reference) run."""
        result = execute_run({**self.BASE, "dvs": False, "voltage": 1.1})
        assert result["outcome"] == "completed"
        assert result["matches_golden"]
        assert result["faults_injected"] == 0
        assert result["recoveries"] == 0

    def test_voltage_change_rethresholds_via_telemetry(self):
        result = execute_run({**self.BASE, "tracing": True})
        kinds = {event.get("kind") for event in result["trace"] or []}
        assert "sram_map" in kinds  # the DVS loop re-thresholded the map
