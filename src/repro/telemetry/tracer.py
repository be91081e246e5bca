"""The typed event bus every instrumented layer emits into.

A :class:`Tracer` is the run's only event log: the engine's segment-
lifecycle events (which ``repro run --timeline`` renders as text) flow
through it, and the adaptive controllers (DVFS, checkpoint length, fault
injector, forward-progress guard, checker health, scheduling pool)
publish their own transitions alongside, stamped onto the same wall
clock.  One tracer per engine; the engine owns it and hands a reference
to each subcomponent.

Disabled tracing is represented by *absence*: components hold
``tracer = None`` and guard emission with one ``is not None`` test at
segment/checkpoint granularity, never per instruction, so the disabled
path costs nothing measurable (see ``docs/OBSERVABILITY.md``).

Components that are called without an explicit wall-clock time (the
fault injector mid-replay, health attribution) stamp events with
:attr:`Tracer.now_ns`, which the engine keeps current at every segment
boundary — sub-segment precision is not meaningful for them anyway,
since checker replay is simulated as a single analytic interval.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .events import KNOWN_KINDS, SchemaError, TraceEvent
from .metrics import MetricsRegistry


class Tracer:
    """Ordered, typed event log plus the run's metrics registry."""

    def __init__(self, **meta: Any) -> None:
        #: Free-form run identity (system, workload, seed...) carried
        #: into exporter headers and Perfetto process names.
        self.meta: Dict[str, Any] = dict(meta)
        self.events: List[TraceEvent] = []
        self.metrics = MetricsRegistry()
        #: The engine's current wall-clock time, used to stamp events
        #: from components that are not handed a time explicitly.
        self.now_ns: float = 0.0

    def __len__(self) -> int:
        return len(self.events)

    def emit(
        self,
        source: str,
        kind: str,
        time_ns: Optional[float] = None,
        segment: int = 0,
        core: int = -1,
        value: Optional[float] = None,
        detail: str = "",
    ) -> None:
        """Record one event; ``time_ns=None`` stamps :attr:`now_ns`."""
        kinds = KNOWN_KINDS.get(source)
        if kinds is None:
            raise SchemaError(f"unknown event source {source!r}")
        if kind not in kinds:
            raise SchemaError(f"unknown kind {kind!r} for source {source!r}")
        self.events.append(
            TraceEvent(
                time_ns=self.now_ns if time_ns is None else time_ns,
                source=source,
                kind=kind,
                segment=segment,
                core=core,
                value=value,
                detail=detail,
            )
        )

    # -- queries ---------------------------------------------------------------
    def of_source(self, source: str) -> List[TraceEvent]:
        return [event for event in self.events if event.source == source]

    def of_kind(self, source: str, kind: str) -> List[TraceEvent]:
        return [
            event
            for event in self.events
            if event.source == source and event.kind == kind
        ]

    # -- serialization ---------------------------------------------------------
    def to_dicts(self) -> List[Dict[str, Any]]:
        """Wire-format event dicts, in recording order."""
        return [event.to_dict() for event in self.events]
