"""Campaign store: run keys, schema migration, round-trip, merge."""

import json
import os
import sqlite3

import pytest

from repro.ioutil import atomic_write_json, atomic_write_text
from repro.store import (
    SCHEMA_VERSION,
    CampaignStore,
    SchemaTooNew,
    StoreError,
    campaign_key,
    canonical_cell,
    migrate,
    parse_shard,
    run_key,
    shard_of,
)

PAYLOAD = {
    "run_id": 7,
    "workload": "bitcount",
    "scale": 0.4,
    "seed": 3,
    "rate": 1e-4,
    "model": "transient",
    "dvs": True,
    "initial_margin": 0.2,
    "chip_seed": 0,
    "voltage": None,
    "tracing": False,
    "hook": None,
}

SPEC = {
    "workload": "bitcount",
    "scale": 0.4,
    "seeds": 2,
    "first_seed": 0,
    "rates": [1e-4],
    "models": ["transient"],
    "dvs": True,
    "initial_margin": 0.2,
    "chip_seeds": 1,
    "first_chip_seed": 0,
    "voltage": None,
    "timeout_s": 60.0,
    "workers": 4,
    "tracing": False,
}


def record_dict(run_id=0, seed=0, run_class="masked", **overrides):
    record = {
        "run_id": run_id,
        "seed": seed,
        "rate": 1e-4,
        "model": "transient",
        "workload": "bitcount",
        "run_class": run_class,
        "chip_seed": 0,
        "detail": "golden match",
        "outcome": "completed",
        "recoveries": 0,
        "faults_injected": 1,
        "instructions": 1000,
        "quarantined": [],
        "escalations": {},
        "duration_s": 0.25,
        "traceback": None,
        "metrics": None,
    }
    record.update(overrides)
    return record


class TestRunKeys:
    def test_golden_hash_pinned(self):
        # The canonicalisation contract: this hash may only change with
        # a deliberate CODE_IDENTITY bump (which orphans stored results).
        assert run_key(PAYLOAD) == (
            "a596ccf11f216cc5ccbb1d00fab8e53b0a89e57ade695dbde1f172152e532b1f"
        )

    def test_campaign_golden_hash_pinned(self):
        assert campaign_key(SPEC) == (
            "d9459722090bcec52fce8d008013d6c2a27cfb6dc9e395e965e0dd41f32ee9a3"
        )

    def test_run_id_is_positional_not_identity(self):
        moved = dict(PAYLOAD, run_id=99)
        assert run_key(moved) == run_key(PAYLOAD)

    def test_absent_optionals_hash_as_null(self):
        without = {
            k: v for k, v in PAYLOAD.items() if k not in ("voltage", "hook")
        }
        assert run_key(without) == run_key(PAYLOAD)

    def test_every_cell_field_changes_the_key(self):
        for name, value in [
            ("workload", "stream"),
            ("seed", 4),
            ("rate", 2e-4),
            ("model", "burst"),
            ("dvs", False),
            ("chip_seed", 1),
            ("voltage", 0.8),
            ("tracing", True),
            ("hook", "crash"),
        ]:
            assert run_key(dict(PAYLOAD, **{name: value})) != run_key(PAYLOAD)

    def test_canonical_cell_normalises_numerics(self):
        cell = canonical_cell(dict(PAYLOAD, seed=3.0, rate="1e-4"))
        assert cell["seed"] == 3 and isinstance(cell["seed"], int)
        assert cell["rate"] == 1e-4 and isinstance(cell["rate"], float)

    def test_execution_only_fields_do_not_change_campaign(self):
        other = dict(SPEC, workers=1, timeout_s=5.0)
        assert campaign_key(other) == campaign_key(SPEC)

    def test_grid_fields_do_change_campaign(self):
        assert campaign_key(dict(SPEC, seeds=3)) != campaign_key(SPEC)


class TestSharding:
    def test_shards_partition_the_grid(self):
        keys = [run_key(dict(PAYLOAD, seed=seed)) for seed in range(64)]
        for shards in (1, 2, 3, 5):
            buckets = [shard_of(key, shards) for key in keys]
            assert all(0 <= bucket < shards for bucket in buckets)
            # Disjoint and complete: each key lands in exactly one shard.
            assert sorted(
                key for k in range(shards)
                for key, bucket in zip(keys, buckets)
                if bucket == k
            ) == sorted(keys)

    def test_shard_of_is_deterministic(self):
        key = run_key(PAYLOAD)
        assert shard_of(key, 4) == shard_of(key, 4)

    def test_parse_shard(self):
        assert parse_shard("2/4") == (2, 4)
        assert parse_shard("1/1") == (1, 1)
        for bad in ("0/4", "5/4", "2", "a/b", "-1/4"):
            with pytest.raises(ValueError):
                parse_shard(bad)


class TestStoreRoundTrip:
    def test_record_round_trip_with_telemetry(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        metrics = {"counters": {"instructions": 1000}}
        trace = [{"kind": "segment_start", "ts_ns": 1}]
        with CampaignStore(path) as store:
            store.register_campaign("c1", SPEC, [("k1", 0, PAYLOAD)])
            store.record_run(
                "c1",
                "k1",
                record_dict(metrics=metrics, trace=trace),
                metrics=metrics,
                trace=trace,
                voltage=0.85,
            )
        with CampaignStore(path) as store:
            record = store.load_record("k1")
            assert record["run_class"] == "masked"
            assert record["metrics"] == metrics
            assert record["trace"] == trace
            # Telemetry lives in its own tables, not in record_json.
            raw = store._conn.execute(
                "SELECT record_json, voltage FROM run_records"
            ).fetchone()
            assert "metrics" not in json.loads(raw["record_json"])
            assert raw["voltage"] == 0.85

    def test_wal_mode_and_version(self, tmp_path):
        with CampaignStore(str(tmp_path / "s.sqlite")) as store:
            assert store.journal_mode() == "wal"
            assert store.version == SCHEMA_VERSION

    def test_registration_is_idempotent(self, tmp_path):
        with CampaignStore(str(tmp_path / "s.sqlite")) as store:
            cells = [("k1", 0, PAYLOAD), ("k2", 1, dict(PAYLOAD, seed=4))]
            store.register_campaign("c1", SPEC, cells)
            store.record_run("c1", "k1", record_dict())
            store.register_campaign("c1", SPEC, cells)  # relaunch
            assert store.completed_keys("c1") == {"k1"}
            assert store.pending_cells("c1") == [("k2", 1)]

    def test_counts_and_queries(self, tmp_path):
        with CampaignStore(str(tmp_path / "s.sqlite")) as store:
            store.register_campaign(
                "c1", SPEC, [("k1", 0, PAYLOAD), ("k2", 1, PAYLOAD)]
            )
            store.record_run("c1", "k1", record_dict(run_id=0, seed=0))
            store.record_run(
                "c1", "k2", record_dict(run_id=1, seed=1, run_class="sdc")
            )
            assert store.counts("c1") == {"masked": 1, "sdc": 1}
            assert [r["run_id"] for r in store.query_records("c1")] == [0, 1]
            [summary] = store.list_campaigns()
            assert summary["recorded"] == 2

    def test_load_records_in_run_id_order(self, tmp_path):
        with CampaignStore(str(tmp_path / "s.sqlite")) as store:
            store.register_campaign(
                "c1", SPEC, [("k9", 9, PAYLOAD), ("k0", 0, PAYLOAD)]
            )
            store.record_run("c1", "k9", record_dict(run_id=9))
            store.record_run("c1", "k0", record_dict(run_id=0))
            assert [r["run_id"] for r in store.load_records("c1")] == [0, 9]


class TestMigration:
    def build_v1(self, path):
        conn = sqlite3.connect(path)
        migrate(conn, upto=1)
        with conn:
            conn.execute(
                "INSERT INTO campaigns "
                "(campaign_key, spec_json, created_at, total_cells) "
                "VALUES ('c1', '{}', 't', 1)"
            )
            conn.execute(
                "INSERT INTO run_records (run_key, campaign_key, run_id,"
                " run_class, seed, rate, model, workload, chip_seed, outcome,"
                " detail, recoveries, faults_injected, instructions,"
                " duration_s, record_json, recorded_at) VALUES "
                "('k1', 'c1', 0, 'masked', 0, 1e-4, 'transient', 'bitcount',"
                " 0, 'completed', '', 0, 1, 1000, 0.1, '{}', 't')"
            )
        conn.close()

    def test_v1_store_upgrades_in_place_with_data(self, tmp_path):
        path = str(tmp_path / "old.sqlite")
        self.build_v1(path)
        with CampaignStore(path) as store:  # opening migrates
            assert store.version == SCHEMA_VERSION
            record = store.load_record("k1")
            assert record is not None
            # v2 additions exist: voltage column (NULL for old rows)...
            row = store._conn.execute(
                "SELECT voltage FROM run_records WHERE run_key='k1'"
            ).fetchone()
            assert row["voltage"] is None
            # ...and the artifacts table.
            store._conn.execute("SELECT COUNT(*) FROM artifacts")

    def test_future_store_is_refused(self, tmp_path):
        path = str(tmp_path / "future.sqlite")
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        with pytest.raises(SchemaTooNew):
            CampaignStore(path)


class TestMerge:
    def make_store(self, path, campaign, runs):
        with CampaignStore(path) as store:
            # The full grid is registered everywhere; only this shard's
            # runs are recorded (mirrors ``campaign --shard``).
            grid = [("k0", 0, PAYLOAD), ("k1", 1, PAYLOAD), ("k2", 2, PAYLOAD)]
            store.register_campaign(campaign, SPEC, grid)
            for run_id, key in runs:
                store.record_run(campaign, key, record_dict(run_id=run_id))

    def test_merge_reassembles_shards(self, tmp_path):
        a, b = str(tmp_path / "a.sqlite"), str(tmp_path / "b.sqlite")
        dest = str(tmp_path / "dest.sqlite")
        self.make_store(a, "c1", [(0, "k0"), (1, "k1")])
        self.make_store(b, "c1", [(2, "k2")])
        with CampaignStore(dest) as store:
            added_a = store.merge_from(a)
            added_b = store.merge_from(b)
            assert added_a["run_records"] == 2
            assert added_b["run_records"] == 1
            assert store.recorded_count("c1") == 3
            # Idempotent: merging again adds nothing.
            assert sum(store.merge_from(a).values()) == 0

    def test_merge_into_self_is_refused(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with CampaignStore(path) as store:
            with pytest.raises(StoreError):
                store.merge_from(path)


class TestAtomicWrites:
    def test_failed_serialisation_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            atomic_write_json(str(path), {"bad": object()})
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # no temp droppings either

    def test_replace_is_all_or_nothing(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(str(path), {"v": 1})
        atomic_write_json(str(path), {"v": 2})
        assert json.loads(path.read_text()) == {"v": 2}
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_write_failure_preserves_previous_content(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "first")
        with pytest.raises(TypeError):
            atomic_write_text(str(path), None)  # not a str
        assert path.read_text() == "first"
