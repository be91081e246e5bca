"""The persistent campaign store: a WAL-mode SQLite database.

One store file can hold many campaigns.  Campaigns and cells are
registered up front (the *planned* grid), and results stream in
incrementally — one transaction per classified run — so a campaign
killed at any instant leaves a store containing exactly the runs that
finished, each complete.  Relaunching with ``resume`` then skips every
recorded cell by content-addressed run key.

The store speaks plain dicts (payloads, record dicts, metrics dicts) so
it has no dependency on the campaign layer; :mod:`repro.resilience.
campaign` converts to/from :class:`~repro.resilience.campaign.RunRecord`
at its boundary.

Connections are **not** shared across threads: every thread opens its
own :class:`CampaignStore`.  WAL mode makes concurrent readers + one
writer safe across connections and processes.
"""

from __future__ import annotations

import datetime
import json
import os
import sqlite3
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .schema import SCHEMA_VERSION, migrate, schema_version


class StoreError(RuntimeError):
    """A store-level precondition failed (not a SQLite error)."""


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _dumps(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


#: Tables copied (in dependency order) by :meth:`CampaignStore.merge_from`.
_MERGE_TABLES = (
    "campaigns",
    "cells",
    "run_records",
    "metrics_snapshots",
    "artifacts",
    "explore_searches",
    "explore_evaluations",
)


class CampaignStore:
    """One connection to a campaign store file."""

    def __init__(self, path: str, *, timeout_s: float = 30.0) -> None:
        self.path = path
        fresh = not os.path.exists(path)
        try:
            self._conn = sqlite3.connect(path, timeout=timeout_s)
            self._conn.row_factory = sqlite3.Row
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA foreign_keys=ON")
            migrate(self._conn)
        except sqlite3.DatabaseError as exc:
            # A garbage path (not SQLite at all, or a pre-v1 file some
            # other tool wrote) should surface as a store-level error
            # the CLI can print, not a traceback.
            raise StoreError(
                f"{path!r} is not a campaign store ({exc}); expected a "
                "SQLite file created by `repro campaign --store` or "
                "`repro store merge`"
            ) from exc
        if fresh:
            with self._conn:
                self._conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                    ("created_at", _now()),
                )

    # ------------------------------------------------------------- lifecycle --

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def version(self) -> int:
        return schema_version(self._conn)

    def journal_mode(self) -> str:
        return str(self._conn.execute("PRAGMA journal_mode").fetchone()[0])

    # ---------------------------------------------------------- registration --

    def register_campaign(
        self,
        campaign_key: str,
        spec_dict: Mapping[str, Any],
        cells: Sequence[Tuple[str, int, Mapping[str, Any]]],
    ) -> None:
        """Idempotently register a campaign and its full planned grid.

        ``cells`` is ``(run_key, run_id, payload)`` per grid point.  Safe
        to call again on relaunch: existing rows are left untouched, and
        a registration interrupted mid-grid is completed.
        """
        with self._conn:
            self._conn.execute(
                "INSERT OR IGNORE INTO campaigns "
                "(campaign_key, spec_json, created_at, total_cells) "
                "VALUES (?, ?, ?, ?)",
                (campaign_key, _dumps(dict(spec_dict)), _now(), len(cells)),
            )
            self._conn.executemany(
                "INSERT OR IGNORE INTO cells "
                "(run_key, campaign_key, run_id, payload_json) "
                "VALUES (?, ?, ?, ?)",
                (
                    (run_key, campaign_key, run_id, _dumps(dict(payload)))
                    for run_key, run_id, payload in cells
                ),
            )

    def campaign_spec(self, campaign_key: str) -> Dict[str, Any]:
        row = self._conn.execute(
            "SELECT spec_json FROM campaigns WHERE campaign_key = ?",
            (campaign_key,),
        ).fetchone()
        if row is None:
            raise StoreError(f"no campaign {campaign_key!r} in {self.path}")
        return json.loads(row["spec_json"])

    def list_campaigns(self) -> List[Dict[str, Any]]:
        """Every campaign with its grid size, completion, and class counts."""
        campaigns = []
        for row in self._conn.execute(
            "SELECT campaign_key, spec_json, created_at, total_cells "
            "FROM campaigns ORDER BY created_at"
        ):
            key = row["campaign_key"]
            spec = json.loads(row["spec_json"])
            campaigns.append(
                {
                    "campaign_key": key,
                    "created_at": row["created_at"],
                    "total_cells": row["total_cells"],
                    "recorded": self.recorded_count(key),
                    "counts": self.counts(key),
                    "workload": spec.get("workload"),
                    "spec": spec,
                }
            )
        return campaigns

    # --------------------------------------------------------------- results --

    def record_run(
        self,
        campaign_key: str,
        run_key: str,
        record_dict: Mapping[str, Any],
        *,
        metrics: Optional[Mapping[str, Any]] = None,
        trace: Optional[Sequence[Mapping[str, Any]]] = None,
        voltage: Optional[float] = None,
    ) -> None:
        """Persist one classified run — one transaction, crash-atomic.

        ``record_dict`` is a :meth:`RunRecord.to_dict`-shaped mapping
        *without* its telemetry payloads; metrics and the raw trace are
        stored in their own tables so record queries stay cheap.
        """
        record = {
            key: value
            for key, value in dict(record_dict).items()
            if key not in ("metrics", "trace")
        }
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO run_records "
                "(run_key, campaign_key, run_id, run_class, seed, rate, model,"
                " workload, chip_seed, outcome, detail, recoveries,"
                " faults_injected, instructions, duration_s, record_json,"
                " recorded_at, voltage) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    run_key,
                    campaign_key,
                    record["run_id"],
                    record["run_class"],
                    record["seed"],
                    record["rate"],
                    record["model"],
                    record["workload"],
                    record["chip_seed"],
                    record.get("outcome"),
                    record.get("detail", ""),
                    record.get("recoveries", 0),
                    record.get("faults_injected", 0),
                    record.get("instructions", 0),
                    record.get("duration_s", 0.0),
                    _dumps(record),
                    _now(),
                    voltage,
                ),
            )
            if metrics is not None:
                self._conn.execute(
                    "INSERT OR REPLACE INTO metrics_snapshots "
                    "(run_key, metrics_json) VALUES (?, ?)",
                    (run_key, _dumps(dict(metrics))),
                )
            if trace is not None:
                self._conn.execute(
                    "INSERT OR REPLACE INTO artifacts "
                    "(run_key, kind, content) VALUES (?, 'trace', ?)",
                    (run_key, _dumps(list(trace))),
                )

    def completed_keys(self, campaign_key: str) -> set:
        """Run keys of every recorded cell of a campaign."""
        return {
            row["run_key"]
            for row in self._conn.execute(
                "SELECT run_key FROM run_records WHERE campaign_key = ?",
                (campaign_key,),
            )
        }

    def recorded_count(self, campaign_key: str) -> int:
        return int(
            self._conn.execute(
                "SELECT COUNT(*) FROM run_records WHERE campaign_key = ?",
                (campaign_key,),
            ).fetchone()[0]
        )

    def load_record(self, run_key: str) -> Optional[Dict[str, Any]]:
        """One record dict with its metrics/trace re-attached, or None."""
        row = self._conn.execute(
            "SELECT record_json FROM run_records WHERE run_key = ?", (run_key,)
        ).fetchone()
        if row is None:
            return None
        record = json.loads(row["record_json"])
        metrics_row = self._conn.execute(
            "SELECT metrics_json FROM metrics_snapshots WHERE run_key = ?",
            (run_key,),
        ).fetchone()
        record["metrics"] = (
            json.loads(metrics_row["metrics_json"]) if metrics_row else None
        )
        trace_row = self._conn.execute(
            "SELECT content FROM artifacts WHERE run_key = ? AND kind = 'trace'",
            (run_key,),
        ).fetchone()
        record["trace"] = json.loads(trace_row["content"]) if trace_row else None
        return record

    def load_records(self, campaign_key: str) -> List[Dict[str, Any]]:
        """Every record of a campaign (metrics/trace attached), run-id order."""
        keys = [
            row["run_key"]
            for row in self._conn.execute(
                "SELECT run_key FROM run_records WHERE campaign_key = ? "
                "ORDER BY run_id",
                (campaign_key,),
            )
        ]
        records = [self.load_record(key) for key in keys]
        return [record for record in records if record is not None]

    # --------------------------------------------------------------- queries --

    def counts(self, campaign_key: str) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for row in self._conn.execute(
            "SELECT run_class, COUNT(*) AS n FROM run_records "
            "WHERE campaign_key = ? GROUP BY run_class",
            (campaign_key,),
        ):
            counts[row["run_class"]] = int(row["n"])
        return counts

    def pending_cells(self, campaign_key: str) -> List[Tuple[str, int]]:
        """Registered cells with no record yet, as (run_key, run_id)."""
        return [
            (row["run_key"], int(row["run_id"]))
            for row in self._conn.execute(
                "SELECT c.run_key, c.run_id FROM cells c "
                "LEFT JOIN run_records r ON r.run_key = c.run_key "
                "WHERE c.campaign_key = ? AND r.run_key IS NULL "
                "ORDER BY c.run_id",
                (campaign_key,),
            )
        ]

    def cells(self, campaign_key: str) -> List[Dict[str, Any]]:
        """The planned grid: (run_key, run_id, payload) per cell."""
        return [
            {
                "run_key": row["run_key"],
                "run_id": int(row["run_id"]),
                "payload": json.loads(row["payload_json"]),
            }
            for row in self._conn.execute(
                "SELECT run_key, run_id, payload_json FROM cells "
                "WHERE campaign_key = ? ORDER BY run_id",
                (campaign_key,),
            )
        ]

    def query_records(self, campaign_key: str) -> List[Dict[str, Any]]:
        """One campaign's summary rows (no telemetry payloads), run-id order."""
        return [
            dict(row)
            for row in self._conn.execute(
                "SELECT run_key, campaign_key, run_id, run_class, seed, rate,"
                " model, workload, chip_seed, outcome, detail, recoveries,"
                " faults_injected, instructions, duration_s, voltage, recorded_at"
                " FROM run_records WHERE campaign_key = ? ORDER BY run_id",
                (campaign_key,),
            )
        ]

    # --------------------------------------------------------------- explore --

    def register_explore(
        self, explore_key: str, spec_dict: Mapping[str, Any]
    ) -> None:
        """Idempotently register a design-space search (v3 namespace)."""
        with self._conn:
            self._conn.execute(
                "INSERT OR IGNORE INTO explore_searches "
                "(explore_key, spec_json, created_at) VALUES (?, ?, ?)",
                (explore_key, _dumps(dict(spec_dict)), _now()),
            )

    def record_evaluation(
        self,
        explore_key: str,
        genome_key: str,
        generation: int,
        genome: Mapping[str, Any],
        objectives: Mapping[str, Any],
        campaign_key: str,
    ) -> None:
        """Persist one genome evaluation — first writer wins.

        ``INSERT OR IGNORE`` keeps the *original* generation when a
        genome is re-encountered (by a later generation, or by a resumed
        search re-playing the loop), so resume reproduces the
        uninterrupted history exactly.
        """
        with self._conn:
            self._conn.execute(
                "INSERT OR IGNORE INTO explore_evaluations "
                "(explore_key, genome_key, generation, genome_json,"
                " objectives_json, campaign_key, recorded_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    explore_key,
                    genome_key,
                    int(generation),
                    _dumps(dict(genome)),
                    _dumps(dict(objectives)),
                    campaign_key,
                    _now(),
                ),
            )

    def load_evaluations(self, explore_key: str) -> List[Dict[str, Any]]:
        """Every evaluation of a search, (generation, genome_key) order."""
        return [
            {
                "genome_key": row["genome_key"],
                "generation": int(row["generation"]),
                "genome": json.loads(row["genome_json"]),
                "objectives": json.loads(row["objectives_json"]),
                "campaign_key": row["campaign_key"],
            }
            for row in self._conn.execute(
                "SELECT genome_key, generation, genome_json, objectives_json,"
                " campaign_key FROM explore_evaluations "
                "WHERE explore_key = ? ORDER BY generation, genome_key",
                (explore_key,),
            )
        ]

    def list_explores(self) -> List[Dict[str, Any]]:
        """Every registered search with its evaluation count."""
        return [
            {
                "explore_key": row["explore_key"],
                "created_at": row["created_at"],
                "spec": json.loads(row["spec_json"]),
                "evaluations": int(
                    self._conn.execute(
                        "SELECT COUNT(*) FROM explore_evaluations "
                        "WHERE explore_key = ?",
                        (row["explore_key"],),
                    ).fetchone()[0]
                ),
            }
            for row in self._conn.execute(
                "SELECT explore_key, spec_json, created_at "
                "FROM explore_searches ORDER BY created_at"
            )
        ]

    # ----------------------------------------------------------------- merge --

    def merge_from(self, other_path: str) -> Dict[str, int]:
        """Fold another store's campaigns/records into this one.

        Content-addressed keys make this idempotent and order-free:
        rows already present are ignored, so shard stores produced by
        ``repro campaign --shard K/N`` on different machines merge into
        the same store an unsharded run would have produced.  Returns
        rows-added per table.
        """
        if os.path.abspath(other_path) == os.path.abspath(self.path):
            raise StoreError("cannot merge a store into itself")
        # Opening migrates the source to the current schema first.
        with CampaignStore(other_path):
            pass
        self._conn.execute("ATTACH DATABASE ? AS src", (other_path,))
        added: Dict[str, int] = {}
        try:
            with self._conn:
                for table in _MERGE_TABLES:
                    before = self._conn.total_changes
                    self._conn.execute(
                        f"INSERT OR IGNORE INTO {table} "
                        f"SELECT * FROM src.{table}"
                    )
                    added[table] = self._conn.total_changes - before
        finally:
            self._conn.execute("DETACH DATABASE src")
        return added
