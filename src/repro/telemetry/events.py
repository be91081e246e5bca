"""The telemetry event model and its versioned wire schema.

One :class:`TraceEvent` records one transition somewhere in the stack at
one wall-clock instant.  Every event names its *source* — which layer of
the simulator emitted it — and a *kind* drawn from that source's
vocabulary, so consumers (exporters, tests, external tools) can filter
without string-matching free-form details.

The JSONL wire format is versioned through :data:`SCHEMA_VERSION`; a
file's header line carries the version it was written with, and
:func:`validate_event_dict` enforces the schema when a trace is loaded
back.  Extending the vocabulary (new kinds, new sources) is backwards
compatible; changing field names or types requires a version bump.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

#: Version of the JSONL/Perfetto event schema.  Bump when a field is
#: renamed or retyped; adding kinds/sources is compatible within one
#: version.
SCHEMA_VERSION = 1

#: Identifier written to JSONL headers so a reader can cheaply reject
#: files that are not repro telemetry at all.
SCHEMA_NAME = "repro.telemetry"


class EventSource(enum.Enum):
    """Which layer of the simulator emitted an event."""

    #: Segment lifecycle on the main core: open/close/dispatch/commit/
    #: detect/rollback/external flush (what ``repro run --timeline``
    #: prints).
    ENGINE = "engine"
    #: The dynamic voltage controller: voltage steps, tide-mark moves,
    #: escalation holds.
    DVFS = "dvfs"
    #: The fault injector: where and what kind of fault fired.
    FAULTS = "faults"
    #: The resilience layer: guard escalation stages, checker
    #: quarantine/vindication/absolution.
    RESILIENCE = "resilience"
    #: The checkpoint-length controller: target adaptation.
    CHECKPOINT = "checkpoint"
    #: The checker pool: squashed checks (busy intervals are ``engine``
    #: ``dispatch`` events).
    SCHEDULING = "scheduling"
    #: The differential-execution oracle: fuzz cases, checkpoint-level
    #: cross-checks, and first divergences (``repro fuzz``/``diffcheck``).
    ORACLE = "oracle"
    #: The design-space explorer (``repro explore``): per-genome
    #: evaluations, generation summaries, and Pareto-front snapshots.
    #: Explore events use the *generation index* as their logical time —
    #: the search has no simulated clock, and wall-clock stamps would
    #: break the byte-identical-resume guarantee.
    EXPLORE = "explore"
    #: The multi-main-core harness (shared checker pool): per-main
    #: fairness/throughput attribution emitted once at the end of a run.
    MULTICORE = "multicore"


#: Event kinds each source may emit.  ``validate_event_dict`` enforces
#: membership, so a typo'd kind fails at write/load time instead of
#: silently producing an empty track.
KNOWN_KINDS: Dict[str, frozenset] = {
    EventSource.ENGINE.value: frozenset(
        {
            "segment_open",
            "segment_close",
            "dispatch",
            "commit",
            "detect",
            "rollback",
            "external_flush",
        }
    ),
    EventSource.DVFS.value: frozenset(
        {"voltage", "tide_mark", "tide_reset", "escalate", "hold_release"}
    ),
    # ``inject``: a fault fired (detail carries the site, model, and —
    # for SRAM-map faults — cell coordinates and cluster id).
    # ``sram_map``: a voltage change re-thresholded a bit-cell map
    # (value carries the new active-cell count).
    EventSource.FAULTS.value: frozenset({"inject", "sram_map"}),
    EventSource.RESILIENCE.value: frozenset(
        {"escalation", "quarantine", "vindication", "absolution"}
    ),
    EventSource.CHECKPOINT.value: frozenset({"target"}),
    # ``abort``: an in-flight check squashed (value = reclaimed busy
    # ns).  ``busy`` repeated each ``engine`` ``dispatch`` and is no
    # longer emitted; it stays so that older version-1 files still load.
    EventSource.SCHEDULING.value: frozenset({"busy", "abort"}),
    EventSource.ORACLE.value: frozenset(
        {"fuzz_case", "checkpoint", "divergence"}
    ),
    # ``evaluation``: one genome scored (value = its energy objective,
    # detail = genome key + objective vector).  ``generation``: one
    # generation finished (value = front size).  ``front``: the final
    # Pareto front (value = hypervolume).
    EventSource.EXPLORE.value: frozenset({"evaluation", "generation", "front"}),
    # ``core_done``: one main core finished (core = main id, value =
    # its wall_ns).  ``dispatch_share`` / ``busy_share`` / ``wait_ns``:
    # per-main fairness attribution (core = main id).  ``wait_gini``:
    # pool-wide concentration of the waiting cost.
    EventSource.MULTICORE.value: frozenset(
        {"core_done", "dispatch_share", "busy_share", "wait_ns", "wait_gini"}
    ),
}


class SchemaError(ValueError):
    """A serialized event (or trace file) violates the telemetry schema."""


@dataclass(frozen=True)
class TraceEvent:
    """One transition at one wall-clock instant, anywhere in the stack."""

    time_ns: float
    #: An :class:`EventSource` value.
    source: str
    #: One of ``KNOWN_KINDS[source]``.
    kind: str
    #: Segment sequence number the event concerns (0 when N/A).
    segment: int = 0
    #: Checker core involved (-1 when N/A).
    core: int = -1
    #: Numeric payload: a voltage, a target length, a duration... (None
    #: when the event carries no scalar).
    value: Optional[float] = None
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """Compact dict for the JSONL wire format (defaults elided)."""
        data: Dict[str, Any] = {
            "t": self.time_ns,
            "src": self.source,
            "kind": self.kind,
        }
        if self.segment:
            data["seg"] = self.segment
        if self.core >= 0:
            data["core"] = self.core
        if self.value is not None:
            data["value"] = self.value
        if self.detail:
            data["detail"] = self.detail
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceEvent":
        validate_event_dict(data)
        return cls(
            time_ns=float(data["t"]),
            source=data["src"],
            kind=data["kind"],
            segment=int(data.get("seg", 0)),
            core=int(data.get("core", -1)),
            value=(float(data["value"]) if "value" in data else None),
            detail=str(data.get("detail", "")),
        )


def validate_event_dict(data: Mapping[str, Any]) -> None:
    """Raise :class:`SchemaError` unless ``data`` is a valid wire event."""
    if not isinstance(data, Mapping):
        raise SchemaError(f"event must be an object, got {type(data).__name__}")
    for key in ("t", "src", "kind"):
        if key not in data:
            raise SchemaError(f"event missing required field {key!r}: {data!r}")
    if not isinstance(data["t"], (int, float)) or isinstance(data["t"], bool):
        raise SchemaError(f"event field 't' must be a number: {data!r}")
    source = data["src"]
    kinds = KNOWN_KINDS.get(source)
    if kinds is None:
        raise SchemaError(
            f"unknown event source {source!r}; expected one of "
            f"{sorted(KNOWN_KINDS)}"
        )
    if data["kind"] not in kinds:
        raise SchemaError(
            f"unknown kind {data['kind']!r} for source {source!r}; "
            f"expected one of {sorted(kinds)}"
        )
    if "seg" in data and not isinstance(data["seg"], int):
        raise SchemaError(f"event field 'seg' must be an integer: {data!r}")
    if "core" in data and not isinstance(data["core"], int):
        raise SchemaError(f"event field 'core' must be an integer: {data!r}")
    if "value" in data and (
        not isinstance(data["value"], (int, float)) or isinstance(data["value"], bool)
    ):
        raise SchemaError(f"event field 'value' must be a number: {data!r}")
    if "detail" in data and not isinstance(data["detail"], str):
        raise SchemaError(f"event field 'detail' must be a string: {data!r}")
