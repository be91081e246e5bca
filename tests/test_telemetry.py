"""The telemetry subsystem: event model, tracer, metrics, engine hooks."""

from dataclasses import replace

import pytest

from repro.config import table1_config
from repro.core import ParaDoxSystem
from repro.telemetry import (
    KNOWN_KINDS,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    Histogram,
    MetricsRegistry,
    SchemaError,
    TraceEvent,
    Tracer,
    merge_metrics,
    render_timeline,
    validate_event_dict,
)


def traced_system(rate=0.0, seed=3, **kwargs):
    config = table1_config().with_error_rate(rate, seed=seed)
    return ParaDoxSystem(config=config, tracing=True, **kwargs)


class TestTraceEvent:
    def test_round_trip(self):
        event = TraceEvent(12.5, "engine", "dispatch", segment=3, core=2, value=7.0)
        assert TraceEvent.from_dict(event.to_dict()) == event

    def test_compact_dict_elides_defaults(self):
        event = TraceEvent(1.0, "engine", "segment_open", segment=1)
        data = event.to_dict()
        assert set(data) == {"t", "src", "kind", "seg"}

    def test_validate_rejects_unknown_source(self):
        with pytest.raises(SchemaError):
            validate_event_dict({"t": 0.0, "src": "nope", "kind": "dispatch"})

    def test_validate_rejects_unknown_kind(self):
        with pytest.raises(SchemaError):
            validate_event_dict({"t": 0.0, "src": "engine", "kind": "nope"})

    def test_validate_rejects_missing_fields(self):
        with pytest.raises(SchemaError):
            validate_event_dict({"src": "engine", "kind": "dispatch"})

    def test_every_source_has_kinds(self):
        assert all(KNOWN_KINDS.values())


class TestTracer:
    def test_emit_validates_kind(self):
        tracer = Tracer()
        with pytest.raises(SchemaError):
            tracer.emit("engine", "not-a-kind")

    def test_emit_defaults_to_now_ns(self):
        tracer = Tracer()
        tracer.now_ns = 42.0
        tracer.emit("faults", "inject", core=1)
        assert tracer.events[-1].time_ns == 42.0

    def test_span_is_order_independent(self):
        tracer = Tracer()
        tracer.emit("engine", "segment_open", time_ns=100.0, segment=1)
        tracer.emit("engine", "segment_close", time_ns=900.0, segment=1)
        tracer.emit("engine", "commit", time_ns=50.0, segment=1)
        times = [e.time_ns for e in tracer.events]
        assert times == [100.0, 900.0, 50.0]  # recording order is kept
        assert max(times) - min(times) == 850.0
        kinds = [line.split()[2] for line in render_timeline(tracer.events).splitlines()]
        assert kinds == ["commit", "segment_open", "segment_close"]

    def test_filters(self):
        tracer = Tracer()
        tracer.emit("engine", "segment_open", segment=1)
        tracer.emit("dvfs", "voltage", value=1.0)
        assert len(tracer.of_source("engine")) == 1
        assert len(tracer.of_kind("dvfs", "voltage")) == 1


class TestMetrics:
    def test_histogram_observe_and_mean(self):
        histogram = Histogram(edges=(10.0, 100.0))
        for value in (5.0, 50.0, 500.0):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1]
        assert histogram.mean == pytest.approx(555.0 / 3)

    def test_histogram_merge_requires_same_edges(self):
        left = Histogram(edges=(10.0,))
        with pytest.raises(ValueError):
            left.merge(Histogram(edges=(20.0,)))

    def test_registry_to_dict_carries_schema(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.gauge("b", 2.0)
        registry.observe("c", 3.0)
        data = registry.to_dict()
        assert data["schema"] == SCHEMA_NAME
        assert data["version"] == SCHEMA_VERSION
        assert data["counters"]["a"] == 1.0

    def test_merge_counters_sum_and_gauges_aggregate(self):
        runs = []
        for value in (1.0, 3.0):
            registry = MetricsRegistry()
            registry.inc("n", value)
            registry.gauge("v", value)
            registry.observe("h", value, edges=(2.0,))
            registry.set_per_checker("w", [value, 0.0])
            runs.append(registry.to_dict())
        merged = merge_metrics(runs + [None])
        assert merged["merged_runs"] == 2
        assert merged["skipped_runs"] == 1
        assert merged["counters"]["n"] == 4.0
        assert merged["gauges"]["v"] == {"min": 1.0, "max": 3.0, "mean": 2.0}
        assert merged["histograms"]["h"]["total"] == 2
        assert merged["per_checker"]["w"] == [2.0, 0.0]

    def test_merge_rejects_foreign_dict(self):
        with pytest.raises(SchemaError):
            merge_metrics([{"schema": "other", "version": 1}])


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def clean(self, bitcount_small):
        return traced_system().run(bitcount_small, seed=3)

    @pytest.fixture(scope="class")
    def faulty(self, bitcount_small):
        return traced_system(rate=1e-3).run(bitcount_small, seed=3)

    def test_disabled_by_default(self, bitcount_small):
        result = ParaDoxSystem().run(bitcount_small, seed=3)
        assert result.trace is None
        assert result.metrics is None

    def test_tracing_off_builds_no_tracer(self, bitcount_small):
        # Disabled tracing costs nothing because no tracer exists: every
        # emission site is one "is not None" test.  Checked on a run that
        # builds every component that can hold a tracer, starting 0.15 V
        # below the safe voltage so faults fire and are detected.
        config = table1_config().with_error_rate(3e-3, seed=3)
        config = replace(config, dvfs=replace(config.dvfs, initial_difference=0.15))
        system = ParaDoxSystem(config=config, dvs=True, resilient=True)
        engine = system.engine(bitcount_small, seed=3)
        components = (
            engine.length_controller,
            engine.dvfs,
            engine.injector,
            engine.guard,
            engine.health,
        )
        assert all(component is not None for component in components)
        result = engine.run(bitcount_small.max_instructions)
        assert result.errors_detected > 0
        assert engine.tracer is None
        assert all(component.tracer is None for component in components)
        assert result.trace is None
        assert result.metrics is None

    def test_tracing_does_not_perturb_the_simulation(self, bitcount_small, clean):
        plain = ParaDoxSystem().run(bitcount_small, seed=3)
        assert plain.wall_ns == clean.wall_ns
        assert plain.instructions == clean.instructions
        assert plain.segments == clean.segments

    def test_segment_lifecycle_events(self, clean):
        kinds = {}
        for event in clean.trace:
            kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
        assert kinds["segment_close"] == clean.segments
        assert kinds["dispatch"] == clean.segments
        assert kinds["commit"] == clean.segments
        assert "busy" not in kinds
        assert kinds["segment_open"] >= clean.segments

    def test_metrics_summary(self, clean):
        metrics = clean.metrics
        assert metrics["counters"]["engine.segments"] == clean.segments
        assert metrics["counters"]["engine.instructions"] == clean.instructions
        assert metrics["gauges"]["engine.wall_ns"] == clean.wall_ns
        assert len(metrics["per_checker"]["scheduling.wake_rates"]) == 16

    def test_faulty_run_traces_detections(self, faulty):
        assert faulty.errors_detected > 0
        detects = [e for e in faulty.trace if e["kind"] == "detect"]
        rollbacks = [e for e in faulty.trace if e["kind"] == "rollback"]
        injects = [e for e in faulty.trace if e["kind"] == "inject"]
        assert len(detects) == faulty.errors_detected
        assert len(rollbacks) == faulty.errors_detected
        assert len(injects) == faulty.faults_injected
        assert faulty.metrics["counters"]["faults.injected"] == faulty.faults_injected

    def test_dvs_run_traces_voltage(self, bitcount_small):
        result = traced_system(dvs=True).run(bitcount_small, seed=3)
        voltages = [e for e in result.trace if e["kind"] == "voltage"]
        assert len(voltages) == result.segments
        assert all(v["value"] > 0 for v in voltages)

    def test_resilient_faulty_run_traces_escalations(self, bitcount_small):
        result = traced_system(rate=3e-3, dvs=True, resilient=True).run(
            bitcount_small, seed=3
        )
        if result.escalations:
            traced = [e for e in result.trace if e["kind"] == "escalation"]
            assert len(traced) == len(result.escalations)
        if result.quarantine_events:
            traced = [e for e in result.trace if e["kind"] == "quarantine"]
            assert len(traced) == len(result.quarantine_events)
