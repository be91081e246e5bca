"""Persistent, queryable campaign results.

ParaDox's headline numbers are statistical: they emerge from sweeps
over seeds × voltages × fault models × chip maps far too large to rerun
on a whim or hold in one process's memory.  This package makes such
campaigns durable and addressable:

* :mod:`repro.store.runkey` — content-addressed identity: a stable
  SHA-256 over the canonicalised cell spec, so "has this exact
  simulation already run?" is a key lookup, resume is provably
  bit-identical, and shards partition deterministically.
* :mod:`repro.store.schema` — the WAL-mode SQLite schema and its
  append-only, versioned migration chain.
* :mod:`repro.store.store` — :class:`CampaignStore`: incremental
  per-run writes, pending/completed queries, and shard merging.

``repro report`` renders a store as an HTML dashboard
(:mod:`repro.viz`).  See ``docs/STORE.md`` for the schema and the
run-key canonicalisation rules.
"""

from .runkey import (
    CODE_IDENTITY,
    campaign_key,
    canonical_cell,
    canonical_spec,
    parse_shard,
    run_key,
    shard_of,
)
from .schema import SCHEMA_VERSION, SchemaTooNew, migrate, schema_version
from .store import CampaignStore, StoreError

__all__ = [
    "CODE_IDENTITY",
    "CampaignStore",
    "SCHEMA_VERSION",
    "SchemaTooNew",
    "StoreError",
    "campaign_key",
    "canonical_cell",
    "canonical_spec",
    "migrate",
    "parse_shard",
    "run_key",
    "schema_version",
    "shard_of",
]
