"""Trace exporters: versioned JSONL, Chrome/Perfetto ``trace_event``, text.

Two serializations of the same event stream:

* **JSONL** — one header object (schema name/version plus the tracer's
  run metadata) followed by one event object per line.  Lossless and
  diffable; :func:`read_jsonl` round-trips exactly what
  :func:`write_jsonl` wrote, validating every line against the schema.
* **Perfetto** — the Chrome ``trace_event`` JSON format, loadable at
  https://ui.perfetto.dev.  Each run becomes one *process*: the main
  core is a thread carrying segment slices and detection/rollback/flush
  instants, each checker core is its own thread carrying one busy slice
  per ``engine`` ``dispatch`` (``scheduling`` events are not drawn),
  and the supply voltage and checkpoint-length target render as counter
  tracks.  Times convert from simulated nanoseconds to the format's
  microseconds.

:func:`merge_traces` lays any number of runs (a SPEC suite, an injection
campaign) side by side in one Perfetto file, one process per run.

Two text renderers print the engine's segment lifecycle for a terminal
(``repro run --timeline``): :func:`render_timeline`, one line per event,
and :func:`render_checker_gantt`, checker occupancy as ASCII.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Iterable, List, Mapping, Optional, Sequence, Tuple

from .events import SCHEMA_NAME, SCHEMA_VERSION, SchemaError, TraceEvent

#: Perfetto thread IDs: the main core, then one thread per checker.
MAIN_TID = 0
CHECKER_TID_BASE = 100


# ------------------------------------------------------------------- JSONL --
def write_jsonl(
    handle: IO[str],
    events: Iterable[TraceEvent],
    meta: Optional[Mapping[str, Any]] = None,
) -> int:
    """Write a header line plus one event per line; returns event count."""
    header = {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "meta": dict(meta or {}),
    }
    handle.write(json.dumps(header) + "\n")
    count = 0
    for event in events:
        handle.write(json.dumps(event.to_dict()) + "\n")
        count += 1
    return count


def write_jsonl_path(
    path: str,
    events: Iterable[TraceEvent],
    meta: Optional[Mapping[str, Any]] = None,
) -> int:
    with open(path, "w", encoding="utf-8") as handle:
        return write_jsonl(handle, events, meta)


def read_jsonl(handle: IO[str]) -> Tuple[Dict[str, Any], List[TraceEvent]]:
    """Load and validate a JSONL trace; returns ``(meta, events)``.

    Raises :class:`SchemaError` on a missing/foreign header, an
    unsupported version, or any malformed event line.
    """
    header_line = handle.readline()
    if not header_line.strip():
        raise SchemaError("empty trace file (missing header line)")
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as error:
        raise SchemaError(f"unparseable header line: {error}") from error
    if not isinstance(header, dict) or header.get("schema") != SCHEMA_NAME:
        raise SchemaError(
            f"not a {SCHEMA_NAME} trace (header schema: "
            f"{header.get('schema') if isinstance(header, dict) else header!r})"
        )
    if header.get("version") != SCHEMA_VERSION:
        raise SchemaError(
            f"trace schema version {header.get('version')!r} "
            f"!= supported {SCHEMA_VERSION}"
        )
    events: List[TraceEvent] = []
    for number, line in enumerate(handle, start=2):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as error:
            raise SchemaError(f"line {number}: unparseable JSON: {error}") from error
        try:
            events.append(TraceEvent.from_dict(data))
        except SchemaError as error:
            raise SchemaError(f"line {number}: {error}") from error
    return dict(header.get("meta", {})), events


def read_jsonl_path(path: str) -> Tuple[Dict[str, Any], List[TraceEvent]]:
    with open(path, "r", encoding="utf-8") as handle:
        return read_jsonl(handle)


def validate_jsonl_path(path: str) -> int:
    """Validate a JSONL trace file; returns its event count."""
    _meta, events = read_jsonl_path(path)
    return len(events)


# ---------------------------------------------------------------- Perfetto --
def _us(time_ns: float) -> float:
    return time_ns / 1000.0


def _metadata(pid: int, tid: int, name: str, which: str) -> Dict[str, Any]:
    return {
        "name": which,
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def _counter(pid: int, name: str, time_ns: float, series: str, value: float):
    return {
        "name": name,
        "ph": "C",
        "pid": pid,
        "tid": MAIN_TID,
        "ts": _us(time_ns),
        "args": {series: value},
    }


def _instant(pid: int, tid: int, name: str, time_ns: float, args=None):
    event = {
        "name": name,
        "ph": "i",
        "s": "t",
        "pid": pid,
        "tid": tid,
        "ts": _us(time_ns),
    }
    if args:
        event["args"] = args
    return event


def _slice(pid: int, tid: int, name: str, start_ns: float, dur_ns: float, args=None):
    event = {
        "name": name,
        "ph": "X",
        "pid": pid,
        "tid": tid,
        "ts": _us(start_ns),
        "dur": max(_us(dur_ns), 0.0),
    }
    if args:
        event["args"] = args
    return event


def perfetto_events(
    events: Sequence[TraceEvent],
    pid: int = 1,
    label: str = "run",
) -> List[Dict[str, Any]]:
    """Translate one run's event stream into ``trace_event`` entries."""
    out: List[Dict[str, Any]] = [
        _metadata(pid, 0, label, "process_name"),
        _metadata(pid, MAIN_TID, "main core", "thread_name"),
    ]
    named_checkers: set = set()

    def checker_tid(core: int) -> int:
        tid = CHECKER_TID_BASE + core
        if core not in named_checkers:
            named_checkers.add(core)
            out.append(_metadata(pid, tid, f"checker {core}", "thread_name"))
        return tid

    #: seg -> open time, for pairing into main-core slices.
    open_at: Dict[int, float] = {}
    for event in events:
        source, kind = event.source, event.kind
        if source == "engine":
            if kind == "segment_open":
                open_at[event.segment] = event.time_ns
            elif kind == "segment_close":
                start = open_at.pop(event.segment, None)
                if start is not None:
                    out.append(
                        _slice(
                            pid,
                            MAIN_TID,
                            f"seg {event.segment}",
                            start,
                            event.time_ns - start,
                            args={"close_reason": event.detail}
                            if event.detail
                            else None,
                        )
                    )
            elif kind == "detect":
                tid = checker_tid(event.core) if event.core >= 0 else MAIN_TID
                out.append(
                    _instant(
                        pid,
                        tid,
                        f"detect seg {event.segment}",
                        event.time_ns,
                        args={"channel": event.detail} if event.detail else None,
                    )
                )
            elif kind == "rollback":
                out.append(
                    _instant(
                        pid,
                        MAIN_TID,
                        f"rollback seg {event.segment}",
                        event.time_ns,
                        args={"detail": event.detail} if event.detail else None,
                    )
                )
            elif kind == "external_flush":
                out.append(_instant(pid, MAIN_TID, "external flush", event.time_ns))
            elif kind == "commit":
                out.append(
                    _instant(
                        pid, MAIN_TID, f"commit seg {event.segment}", event.time_ns
                    )
                )
            elif kind == "dispatch" and event.core >= 0 and event.value:
                out.append(
                    _slice(
                        pid,
                        checker_tid(event.core),
                        f"check seg {event.segment}",
                        event.time_ns,
                        event.value,
                    )
                )
        elif source == "dvfs":
            if kind == "voltage" and event.value is not None:
                out.append(
                    _counter(pid, "voltage (V)", event.time_ns, "V", event.value)
                )
            elif kind == "tide_mark" and event.value is not None:
                out.append(
                    _counter(pid, "tide mark (V)", event.time_ns, "V", event.value)
                )
            elif kind in ("escalate", "tide_reset", "hold_release"):
                out.append(_instant(pid, MAIN_TID, f"dvfs {kind}", event.time_ns))
        elif source == "checkpoint":
            if kind == "target" and event.value is not None:
                out.append(
                    _counter(
                        pid,
                        "checkpoint target (instrs)",
                        event.time_ns,
                        "instrs",
                        event.value,
                    )
                )
        elif source == "faults":
            tid = checker_tid(event.core) if event.core >= 0 else MAIN_TID
            out.append(
                _instant(
                    pid,
                    tid,
                    f"fault {event.detail}" if event.detail else "fault",
                    event.time_ns,
                )
            )
        elif source == "resilience":
            out.append(
                _instant(
                    pid,
                    checker_tid(event.core) if event.core >= 0 else MAIN_TID,
                    f"{kind} {event.detail}".strip(),
                    event.time_ns,
                )
            )
    return out


def to_perfetto(
    events: Sequence[TraceEvent],
    label: str = "run",
    pid: int = 1,
) -> Dict[str, Any]:
    """One run as a complete Perfetto ``trace_event`` JSON document."""
    return {
        "displayTimeUnit": "ns",
        "otherData": {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION},
        "traceEvents": perfetto_events(events, pid=pid, label=label),
    }


def merge_traces(
    runs: Sequence[Tuple[str, Sequence[TraceEvent]]],
) -> Dict[str, Any]:
    """Many runs, one Perfetto document — one process per run.

    ``runs`` is ``(label, events)`` pairs, e.g. ``("paradox/milc", [...])``
    per suite task or ``("seed 7 rate 1e-4", [...])`` per campaign run.
    """
    trace_events: List[Dict[str, Any]] = []
    for index, (label, events) in enumerate(runs):
        trace_events.extend(perfetto_events(events, pid=index + 1, label=label))
    return {
        "displayTimeUnit": "ns",
        "otherData": {
            "schema": SCHEMA_NAME,
            "version": SCHEMA_VERSION,
            "runs": len(runs),
        },
        "traceEvents": trace_events,
    }


def events_from_dicts(dicts: Iterable[Mapping[str, Any]]) -> List[TraceEvent]:
    """Rehydrate wire-format dicts (e.g. ``RunResult.trace``) to events."""
    return [TraceEvent.from_dict(data) for data in dicts]


# -------------------------------------------------------------------- text --
def render_timeline(events: Sequence[TraceEvent], limit: Optional[int] = None) -> str:
    """One line per event in time order: time, kind, segment, core, value
    and detail.  With ``limit`` only the first ``limit`` lines are shown."""
    ordered = sorted(events, key=lambda event: event.time_ns)
    lines = []
    for event in ordered[:limit] if limit else ordered:
        segment = f"s{event.segment}" if event.segment else ""
        core = f"c{event.core}" if event.core >= 0 else ""
        value = "" if event.value is None else f"{event.value:.1f}"
        lines.append(
            f"{event.time_ns:12.1f} ns  {event.kind:14s} {segment:>6s} "
            f"{core:>4s} {value:>10s}  {event.detail}"
        )
    if limit and len(ordered) > limit:
        lines.append(f"... {len(ordered) - limit} more events")
    return "\n".join(lines)


def render_checker_gantt(
    events: Sequence[TraceEvent], cores: int = 16, width: int = 72
) -> str:
    """ASCII occupancy chart: one row per checker core, '#' marks busy.

    Each busy interval is a ``dispatch`` event: it starts at ``time_ns``
    and lasts ``value`` nanoseconds.
    """
    intervals = [
        (event.core, event.time_ns, event.time_ns + event.value)
        for event in events
        if event.kind == "dispatch"
    ]
    if not intervals:
        return "(no dispatches)"
    t_min = min(start for _, start, _ in intervals)
    t_max = max(end for _, _, end in intervals)
    span = (t_max - t_min) or 1.0
    rows = []
    for core in range(cores):
        cells = [" "] * width
        for owner, start, end in intervals:
            if owner != core:
                continue
            left = int((start - t_min) / span * (width - 1))
            right = max(int((end - t_min) / span * (width - 1)), left)
            for x in range(left, right + 1):
                cells[x] = "#"
        rows.append(f"c{core:02d} |{''.join(cells)}|")
    rows.append(f"     {t_min:.0f} ns {'':{max(width - 24, 1)}} {t_max:.0f} ns")
    return "\n".join(rows)
