"""Design-space exploration: genome codec, NSGA-II machinery, the
seeded search loop's byte-identity guarantees, and the explore CLI."""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, cmd_explore, cmd_store, explore_spec_from_args
from repro.config import table1_config
from repro.explore import (
    GENES,
    ExploreSpec,
    HYPERVOLUME_REFERENCE,
    OBJECTIVE_NAMES,
    PENALTY,
    crossover,
    crowding_distances,
    dominates,
    explore_key,
    genome_key,
    hypervolume,
    mutate,
    non_dominated_sort,
    objectives_from_records,
    paper_default_genome,
    pareto_front_indices,
    random_genome,
    repair,
    run_explore,
    select_survivors,
)
from repro.resilience.campaign import (
    CONFIG_OVERRIDES,
    RESILIENCE_OVERRIDES,
    CampaignSpec,
    RunClass,
    RunRecord,
    apply_config_overrides,
)
from repro.resilience.guard import ResilienceConfig
from repro.store import CampaignStore, StoreError, run_key
from repro.store.runkey import canonical_cell

REPO_ROOT = Path(__file__).resolve().parents[1]


def small_explore_spec(**kwargs):
    base = dict(
        workload="bitcount",
        scale=0.1,
        generations=2,
        population=3,
        seed=0,
        eval_seeds=2,
        timeout_s=60.0,
        workers=0,
    )
    base.update(kwargs)
    return ExploreSpec(**base)


def report_bytes(result):
    return json.dumps(result.to_dict(), sort_keys=True).encode()


class TestGenome:
    def test_paper_default_matches_simulator_defaults(self):
        config = table1_config()
        resilience = ResilienceConfig()
        genome = paper_default_genome()
        assert genome["checker_count"] == config.checker.count
        assert genome["ckpt_additive_increase"] == config.checkpoint.additive_increase
        assert (
            genome["ckpt_multiplicative_decrease"]
            == config.checkpoint.multiplicative_decrease
        )
        assert (
            genome["ckpt_initial_instructions"]
            == config.checkpoint.initial_instructions
        )
        assert genome["dvfs_step_volts"] == config.dvfs.step_volts
        assert genome["dvfs_recovery_factor"] == config.dvfs.recovery_factor
        assert genome["dvfs_tide_slowdown"] == config.dvfs.tide_slowdown
        assert genome["dvfs_min_voltage"] == config.dvfs.min_voltage
        assert genome["guard_shrink_after"] == resilience.shrink_after
        assert genome["guard_escalate_after"] == resilience.escalate_after
        assert (
            genome["quarantine_vindications"] == resilience.quarantine_vindications
        )

    def test_gene_names_cover_every_override(self):
        names = {gene.name for gene in GENES}
        assert names == set(CONFIG_OVERRIDES) | set(RESILIENCE_OVERRIDES)

    def test_repair_clamps_and_quantises(self):
        fixed = repair({"checker_count": 999, "dvfs_min_voltage": 0.70499})
        assert fixed["checker_count"] == 24
        assert fixed["dvfs_min_voltage"] == 0.70
        # Missing genes fall back to the paper defaults.
        assert fixed["ckpt_additive_increase"] == 10

    def test_repair_orders_guard_stages(self):
        fixed = repair({"guard_shrink_after": 5, "guard_escalate_after": 4})
        assert fixed["guard_escalate_after"] > fixed["guard_shrink_after"]

    def test_genome_key_is_order_independent_and_repairing(self):
        genome = paper_default_genome()
        shuffled = dict(reversed(list(genome.items())))
        assert genome_key(genome) == genome_key(shuffled)
        # An out-of-range value keys like its repaired self.
        assert genome_key({**genome, "checker_count": 999}) == genome_key(
            {**genome, "checker_count": 24}
        )
        assert genome_key({**genome, "checker_count": 23}) != genome_key(genome)

    def test_operators_are_seeded_and_in_range(self):
        a = random_genome(np.random.default_rng(1))
        b = random_genome(np.random.default_rng(2))
        assert a == random_genome(np.random.default_rng(1))
        child = mutate(crossover(a, b, np.random.default_rng(3)),
                       np.random.default_rng(4))
        for gene in GENES:
            assert gene.low <= child[gene.name] <= gene.high
            if gene.kind == "int":
                assert isinstance(child[gene.name], int)


class TestOverrides:
    def test_apply_overrides_changes_configs(self):
        config, resilience = apply_config_overrides(
            table1_config(),
            ResilienceConfig(),
            {"checker_count": 8, "dvfs_min_voltage": 0.8,
             "quarantine_vindications": 5},
        )
        assert config.checker.count == 8
        assert config.dvfs.min_voltage == 0.8
        assert resilience.quarantine_vindications == 5
        # Untouched knobs keep their defaults.
        assert config.checkpoint.additive_increase == 10

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            apply_config_overrides(
                table1_config(), ResilienceConfig(), {"not_a_knob": 1}
            )

    def cell(self, **extra):
        payload = {
            "workload": "bitcount", "scale": 0.1, "seed": 0, "rate": 1e-4,
            "model": "transient", "dvs": True, "initial_margin": 0.15,
            "chip_seed": 0, "voltage": None,
        }
        payload.update(extra)
        return payload

    def test_absent_overrides_leave_cell_and_key_unchanged(self):
        # The omit-when-absent rule: legacy cells (no overrides) must
        # canonicalise — and therefore hash — exactly as before PR 9.
        assert "overrides" not in canonical_cell(self.cell())
        assert run_key(self.cell()) == run_key(self.cell(overrides=None))

    def test_overrides_change_the_run_key(self):
        plain = run_key(self.cell())
        tweaked = run_key(self.cell(overrides={"checker_count": 8}))
        assert plain != tweaked
        cell = canonical_cell(self.cell(overrides={"checker_count": 8}))
        assert cell["overrides"] == {"checker_count": 8}

    def test_campaign_spec_round_trips_overrides(self):
        spec = CampaignSpec(
            workload="bitcount", scale=0.1, seeds=1,
            overrides={"checker_count": 8},
        )
        data = spec.to_dict()
        assert data["overrides"] == {"checker_count": 8}
        assert all("overrides" in cell for cell in spec.expand())
        # And the omit-when-absent rule on the spec itself.
        assert "overrides" not in CampaignSpec(workload="bitcount").to_dict()


class TestArchive:
    def test_dominates(self):
        assert dominates((1, 1), (2, 2))
        assert dominates((1, 2), (1, 3))
        assert not dominates((1, 1), (1, 1))
        assert not dominates((1, 3), (2, 1))

    def test_non_dominated_sort_fronts(self):
        points = [(1, 4), (2, 2), (4, 1), (3, 3), (5, 5)]
        fronts = non_dominated_sort(points)
        assert fronts[0] == [0, 1, 2]
        assert fronts[1] == [3]
        assert fronts[2] == [4]
        assert pareto_front_indices(points) == [0, 1, 2]

    def test_crowding_boundaries_are_infinite(self):
        distances = crowding_distances([(1, 4), (2, 2), (4, 1)])
        assert distances[0] == float("inf")
        assert distances[2] == float("inf")
        assert 0.0 < distances[1] < float("inf")

    def test_hypervolume_known_values(self):
        assert hypervolume([(0, 0, 0)], (1, 1, 1)) == pytest.approx(1.0)
        assert hypervolume([(0.5, 0.5, 0.5)], (1, 1, 1)) == pytest.approx(0.125)
        # Two non-dominated points: union, not sum.
        assert hypervolume(
            [(0.0, 0.5, 0.5), (0.5, 0.0, 0.0)], (1, 1, 1)
        ) == pytest.approx(0.25 + 0.5 - 0.125)
        # A point outside the reference box contributes nothing.
        assert hypervolume([(2, 2, 2)], (1, 1, 1)) == 0.0
        with pytest.raises(ValueError):
            hypervolume([(0, 0)], (1, 1))

    def test_select_survivors_prefers_rank_then_spread(self):
        objectives = {
            "a": (1.0, 4.0), "b": (2.0, 2.0), "c": (4.0, 1.0),
            "d": (3.0, 3.0),
        }
        keys = sorted(objectives)
        assert select_survivors(keys, objectives, 3) == ["a", "c", "b"]
        # Deterministic under duplication and any input order.
        assert select_survivors(
            list(reversed(keys)) + ["a"], objectives, 3
        ) == ["a", "c", "b"]


class TestFitness:
    def record(self, run_class=RunClass.DETECTED_RECOVERED, wall_ns=2000.0,
               mean_voltage=1.1, wake_rates=()):
        return RunRecord(
            run_id=0, seed=0, rate=1e-4, model="transient",
            workload="bitcount", run_class=run_class, wall_ns=wall_ns,
            mean_voltage=mean_voltage, wake_rates=list(wake_rates),
        )

    def test_all_failed_gets_penalty(self):
        objectives = objectives_from_records(
            [self.record(run_class=RunClass.SDC)], scale=0.1
        )
        assert objectives["energy"] == PENALTY["energy"]
        assert objectives["slowdown"] == PENALTY["slowdown"]
        assert objectives["failure_rate"] == 1.0

    def test_failure_rate_counts_the_taxonomy_failures(self):
        records = [
            self.record(),
            self.record(run_class=RunClass.HANG),
            self.record(run_class=RunClass.CRASH),
            self.record(run_class=RunClass.MASKED),
        ]
        objectives = objectives_from_records(records, scale=0.1)
        assert objectives["failure_rate"] == 0.5

    def test_nominal_voltage_is_energy_one(self):
        from repro.explore.fitness import baseline_wall_ns

        baseline = baseline_wall_ns("bitcount", 0.1)
        objectives = objectives_from_records(
            [self.record(wall_ns=baseline, mean_voltage=1.1)], scale=0.1
        )
        # Same wall clock as the baseline at nominal voltage with a
        # silent checker pool: energy == slowdown == 1.
        assert objectives["slowdown"] == pytest.approx(1.0)
        assert objectives["energy"] == pytest.approx(1.0)

    def test_undervolting_saves_energy(self):
        from repro.explore.fitness import baseline_wall_ns

        baseline = baseline_wall_ns("bitcount", 0.1)
        nominal = objectives_from_records(
            [self.record(wall_ns=baseline, mean_voltage=1.1)], scale=0.1
        )
        undervolted = objectives_from_records(
            [self.record(wall_ns=baseline, mean_voltage=0.9)], scale=0.1
        )
        assert undervolted["energy"] < nominal["energy"]

    def test_objective_names_match_reference_point(self):
        assert len(OBJECTIVE_NAMES) == len(HYPERVOLUME_REFERENCE) == 3


class TestStoreExplore:
    def test_schema_v3_tables_exist(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        with CampaignStore(path) as store:
            assert store.version >= 3
            store.register_explore("k1", {"seed": 0})
            store.record_evaluation(
                "k1", "g1", 0, {"checker_count": 8}, {"energy": 1.0}, "c1"
            )
            rows = store.load_evaluations("k1")
        assert rows == [{
            "genome_key": "g1", "generation": 0,
            "genome": {"checker_count": 8},
            "objectives": {"energy": 1.0}, "campaign_key": "c1",
        }]

    def test_first_writer_keeps_the_original_generation(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        with CampaignStore(path) as store:
            store.register_explore("k1", {})
            store.record_evaluation("k1", "g1", 0, {}, {}, "c1")
            store.record_evaluation("k1", "g1", 3, {}, {}, "c1")
            [row] = store.load_evaluations("k1")
            assert row["generation"] == 0
            assert store.list_explores()[0]["evaluations"] == 1

    def test_garbage_file_raises_store_error(self, tmp_path):
        path = tmp_path / "bad.sqlite"
        path.write_text("this is not a sqlite database at all")
        with pytest.raises(StoreError) as excinfo:
            CampaignStore(str(path))
        assert "not a campaign store" in str(excinfo.value)

    def test_store_ls_reports_garbage_cleanly(self, tmp_path):
        path = tmp_path / "bad.sqlite"
        path.write_text("garbage")
        args = build_parser().parse_args(["store", "ls", str(path)])
        with pytest.raises(SystemExit) as excinfo:
            cmd_store(args)
        assert "not a campaign store" in str(excinfo.value)

    def test_store_ls_missing_file_exits(self):
        args = build_parser().parse_args(["store", "ls", "/nonexistent.sqlite"])
        with pytest.raises(SystemExit) as excinfo:
            cmd_store(args)
        assert "no store file" in str(excinfo.value)


class TestExploreLoop:
    def test_same_seed_is_byte_identical(self):
        a = run_explore(small_explore_spec())
        b = run_explore(small_explore_spec())
        assert report_bytes(a) == report_bytes(b)

    def test_workers_width_cannot_change_the_search(self):
        serial = run_explore(small_explore_spec(workers=1))
        wide = run_explore(small_explore_spec(workers=4))
        assert report_bytes(serial) == report_bytes(wide)

    def test_explore_key_ignores_execution_only_fields(self):
        assert explore_key(small_explore_spec(workers=1)) == explore_key(
            small_explore_spec(workers=8, timeout_s=5.0)
        )
        assert explore_key(small_explore_spec(seed=1)) != explore_key(
            small_explore_spec(seed=2)
        )

    def test_front_is_non_dominated_and_archived(self):
        result = run_explore(small_explore_spec())
        assert result.front_keys
        points = {
            e.genome_key: tuple(e.objectives[n] for n in OBJECTIVE_NAMES)
            for e in result.evaluations
        }
        for fkey in result.front_keys:
            assert not any(
                dominates(points[other], points[fkey])
                for other in points if other != fkey
            )
        assert len(result.generations) == result.spec.generations
        assert result.default_evaluation() is not None

    def test_store_resume_contract(self, tmp_path):
        store = str(tmp_path / "store.sqlite")
        spec = small_explore_spec()
        reference = report_bytes(run_explore(spec, store_path=store))
        with pytest.raises(StoreError):
            run_explore(spec, store_path=store)
        replayed = run_explore(spec, store_path=store, resume=True)
        assert report_bytes(replayed) == reference
        with CampaignStore(store) as s:
            rows = s.load_evaluations(explore_key(spec))
        assert len(rows) == len(replayed.evaluations)

    def test_telemetry_events_use_generation_time(self):
        from repro.telemetry import Tracer

        tracer = Tracer()
        run_explore(small_explore_spec(), tracer=tracer)
        generations = tracer.of_kind("explore", "generation")
        assert [event.time_ns for event in generations] == [0.0, 1.0]
        assert tracer.of_kind("explore", "front")
        assert tracer.of_kind("explore", "evaluation")

    def test_rejects_degenerate_specs(self):
        with pytest.raises(ValueError):
            run_explore(small_explore_spec(generations=0))
        with pytest.raises(ValueError):
            run_explore(small_explore_spec(population=1))


class TestExploreCLI:
    def parse(self, *argv):
        return build_parser().parse_args(["explore", *argv])

    def test_flags_reach_the_spec(self):
        spec = explore_spec_from_args(self.parse(
            "--workload", "crc32", "--scale", "0.2", "--generations", "3",
            "--population", "5", "--seed", "7", "--eval-seeds", "6",
            "--rate", "1e-3", "--model", "burst", "--run-timeout", "9",
            "--workers", "2",
        ))
        assert spec.workload == "crc32"
        assert spec.scale == 0.2
        assert spec.generations == 3
        assert spec.population == 5
        assert spec.seed == 7
        assert spec.eval_seeds == 6
        assert spec.rate == 1e-3
        assert spec.model == "burst"
        assert spec.timeout_s == 9.0
        assert spec.workers == 2

    def test_smoke_overrides_the_grid(self):
        spec = explore_spec_from_args(self.parse("--smoke", "--workers", "3"))
        assert spec.generations == 2
        assert spec.population == 4
        assert spec.workers == 3

    def test_resume_requires_store(self):
        with pytest.raises(SystemExit):
            cmd_explore(self.parse("--resume", "--smoke"))


def run_cli(*argv, check=True, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=REPO_ROOT,
        env=env,
        check=check,
        capture_output=True,
        text=True,
        **kwargs,
    )


EXPLORE_GRID = [
    "--workload", "bitcount", "--scale", "0.1", "--generations", "2",
    "--population", "4", "--eval-seeds", "2", "--quiet",
]


class TestKillResume:
    def recorded(self, store):
        if not os.path.exists(store):
            return 0
        conn = sqlite3.connect(store)
        try:
            return int(
                conn.execute("SELECT COUNT(*) FROM run_records").fetchone()[0]
            )
        except sqlite3.OperationalError:  # schema not created yet
            return 0
        finally:
            conn.close()

    def test_sigkill_resume_front_is_byte_identical(self, tmp_path):
        ref_json = str(tmp_path / "ref.json")
        run_cli("explore", *EXPLORE_GRID, "--json", ref_json)

        store = str(tmp_path / "store.sqlite")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "explore", *EXPLORE_GRID,
             "--store", store],
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if self.recorded(store) >= 1 or process.poll() is not None:
                    break
                time.sleep(0.005)
            process.send_signal(signal.SIGKILL)
        finally:
            process.wait(timeout=30)

        resumed_json = str(tmp_path / "resumed.json")
        run_cli(
            "explore", *EXPLORE_GRID,
            "--store", store, "--resume", "--json", resumed_json,
        )
        with open(ref_json, "rb") as a, open(resumed_json, "rb") as b:
            assert a.read() == b.read()


class TestReport:
    def test_smoke_search_beats_the_paper_default_somewhere(self, tmp_path):
        # The ISSUE acceptance bar: the smoke search's front strictly
        # improves on the paper-default genome on at least one objective.
        result = run_explore(small_explore_spec(population=4))
        assert result.improves_on_default()

    def test_html_report_is_self_contained(self, tmp_path):
        from repro.viz import render_explore_report, write_explore_report

        result = run_explore(small_explore_spec())
        html = render_explore_report(result)
        assert "<svg" in html and "Pareto" in html
        assert "http://" not in html and "https://" not in html
        out = tmp_path / "explore.html"
        write_explore_report(result, str(out))
        assert out.read_text() == html

    def test_json_report_round_trips(self, tmp_path):
        from repro.ioutil import atomic_write_json

        result = run_explore(small_explore_spec())
        out = tmp_path / "explore.json"
        atomic_write_json(str(out), result.to_dict())
        data = json.loads(out.read_text())
        assert data["explore_key"] == result.key
        assert data["objective_names"] == list(OBJECTIVE_NAMES)
        assert len(data["evaluations"]) == len(result.evaluations)
        assert "workers" not in data["spec"]


class TestDocsChecker:
    def test_checker_passes_on_the_repo_docs(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_docs.py")],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
