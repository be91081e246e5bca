"""The event timeline behind ``repro run --timeline``: the engine's
segment-lifecycle events on the tracer, the lifecycle-ordering oracle,
and the text renderers."""

import pytest

from repro.config import table1_config
from repro.core import ParaDoxSystem
from repro.telemetry import render_checker_gantt, render_timeline


def run_with_timeline(workload, rate=0.0, seed=3):
    """A traced run, as ``repro run --timeline`` makes it: the tracer and
    the run's result."""
    config = table1_config().with_error_rate(rate, seed=seed)
    engine = ParaDoxSystem(config=config, tracing=True).engine(workload, seed=seed)
    result = engine.run(workload.max_instructions)
    return engine.tracer, result


def lifecycle(tracer, kind):
    return tracer.of_kind("engine", kind)


#: Per-segment lifecycle: open -> close -> dispatch -> (commit | detect).
LIFECYCLE_RANK = {
    "segment_open": 0,
    "segment_close": 1,
    "dispatch": 2,
    "commit": 3,
    "detect": 3,
}


def validate_ordering(events):
    """Raise if any segment's events, in time order, go back a lifecycle
    step (a re-open after a rollback is allowed)."""
    last_rank = {}
    for event in sorted(events, key=lambda e: e.time_ns):
        rank = LIFECYCLE_RANK.get(event.kind)
        if rank is None or event.segment == 0:
            continue
        previous = last_rank.get(event.segment)
        if previous is not None and rank < previous and rank != 0:
            raise AssertionError(
                f"segment {event.segment}: {event.kind} after rank-{previous} event"
            )
        last_rank[event.segment] = rank


@pytest.fixture(scope="module")
def clean(bitcount_small):
    return run_with_timeline(bitcount_small)


@pytest.fixture(scope="module")
def faulty(bitcount_small):
    return run_with_timeline(bitcount_small, rate=1e-3)


class TestRecording:
    def test_in_time_order_sorts(self, clean):
        tracer, _ = clean
        times = [event.time_ns for event in tracer.in_time_order()]
        assert times == sorted(times)
        assert len(times) == len(tracer.events)

    def test_every_segment_opens_and_closes(self, clean):
        tracer, result = clean
        opens = lifecycle(tracer, "segment_open")
        closes = lifecycle(tracer, "segment_close")
        assert len(closes) == result.segments
        assert len(opens) >= len(closes)

    def test_every_closed_segment_dispatched(self, clean):
        tracer, result = clean
        assert len(lifecycle(tracer, "dispatch")) == result.segments

    def test_clean_run_commits_everything(self, clean):
        tracer, result = clean
        assert len(lifecycle(tracer, "commit")) == result.segments
        assert not lifecycle(tracer, "detect")

    def test_faulty_run_records_detections_and_rollbacks(self, faulty):
        tracer, result = faulty
        assert result.errors_detected > 0
        assert len(lifecycle(tracer, "detect")) == result.errors_detected
        assert len(lifecycle(tracer, "rollback")) == result.errors_detected

    def test_lifecycle_ordering_oracle(self, clean, faulty):
        for tracer, _ in (clean, faulty):
            validate_ordering(tracer.of_source("engine"))

    def test_detection_carries_channel(self, faulty):
        tracer, _ = faulty
        for event in lifecycle(tracer, "detect"):
            assert event.detail  # the detection channel
            assert event.core >= 0


class TestRendering:
    def test_render_timeline_lines(self, clean):
        events = clean[0].of_source("engine")
        lines = render_timeline(events, limit=10).splitlines()
        assert len(lines) == 11
        assert "segment_open" in lines[0]
        assert lines[-1] == f"... {len(events) - 10} more events"
        dispatch = next(e for e in events if e.kind == "dispatch")
        assert f"{dispatch.value:.1f}" in render_timeline([dispatch])

    def test_render_gantt(self, clean):
        events = clean[0].of_source("engine")
        rows = render_checker_gantt(events).splitlines()
        assert len(rows) == 17  # 16 checker rows plus the time axis
        assert rows[0].startswith("c00 |")
        busy = {int(row[1:3]) for row in rows[:16] if "#" in row}
        assert busy == {e.core for e in events if e.kind == "dispatch"}

    def test_render_empty_gantt(self):
        assert render_checker_gantt([]) == "(no dispatches)"

    def test_span(self, clean):
        tracer, result = clean
        assert 0 < tracer.span_ns() <= result.wall_ns * 2

    def test_span_is_recording_order_independent(self, clean):
        # Lazily processed commits are recorded *after* later events but
        # carry earlier effective timestamps; span_ns must cover the
        # true earliest..latest range, not first-recorded..last-recorded.
        tracer, _ = clean
        recorded = [event.time_ns for event in tracer.events]
        assert recorded != sorted(recorded)
        assert tracer.span_ns() == max(recorded) - min(recorded)
