"""Structured tracing and metrics for the simulator (observability layer).

The subsystem has four parts:

* :mod:`~repro.telemetry.events` — the typed event model and versioned
  wire schema (:class:`TraceEvent`, :class:`EventSource`,
  :data:`SCHEMA_VERSION`);
* :mod:`~repro.telemetry.tracer` — the :class:`Tracer` event bus the
  engine and every adaptive controller emit into when
  ``EngineOptions.tracing`` is on;
* :mod:`~repro.telemetry.metrics` — :class:`MetricsRegistry`
  counters/gauges/histograms and the cross-run :func:`merge_metrics`;
* :mod:`~repro.telemetry.exporters` — JSONL (lossless, validated) and
  Chrome/Perfetto ``trace_event`` JSON, plus the multi-run
  :func:`merge_traces` and the text :func:`render_timeline` and
  :func:`render_checker_gantt`.

See ``docs/OBSERVABILITY.md`` for the event glossary, how to open a
trace in the Perfetto UI, and the overhead guarantees.
"""

from .events import (
    KNOWN_KINDS,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    EventSource,
    SchemaError,
    TraceEvent,
    validate_event_dict,
)
from .exporters import (
    events_from_dicts,
    merge_traces,
    perfetto_events,
    read_jsonl,
    read_jsonl_path,
    render_checker_gantt,
    render_timeline,
    to_perfetto,
    validate_jsonl_path,
    write_jsonl,
    write_jsonl_path,
)
from .metrics import DEFAULT_EDGES, Histogram, MetricsRegistry, merge_metrics
from .tracer import Tracer

__all__ = [
    "DEFAULT_EDGES",
    "EventSource",
    "Histogram",
    "KNOWN_KINDS",
    "MetricsRegistry",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "SchemaError",
    "TraceEvent",
    "Tracer",
    "events_from_dicts",
    "merge_metrics",
    "merge_traces",
    "perfetto_events",
    "read_jsonl",
    "read_jsonl_path",
    "render_checker_gantt",
    "render_timeline",
    "to_perfetto",
    "validate_event_dict",
    "validate_jsonl_path",
    "write_jsonl",
    "write_jsonl_path",
]
