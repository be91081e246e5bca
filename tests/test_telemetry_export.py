"""Trace exporters: JSONL round-trip, Perfetto structure, cross-worker
merging and the jobs-width determinism guarantee."""

import json

import pytest

from repro.cli import WORKLOAD_BUILDERS, resolve_workload
from repro.config import table1_config
from repro.core import ParaDoxSystem
from repro.telemetry import (
    SCHEMA_NAME,
    SchemaError,
    TraceEvent,
    events_from_dicts,
    merge_metrics,
    merge_traces,
    read_jsonl_path,
    to_perfetto,
    validate_jsonl_path,
    write_jsonl_path,
)
from repro.workloads import SPEC_ORDER

#: Every workload the CLI names: the five kernels, then the SPEC proxies.
ALL_WORKLOADS = list(WORKLOAD_BUILDERS) + SPEC_ORDER


@pytest.fixture(scope="module")
def traced_run(bitcount_small):
    config = table1_config().with_error_rate(1e-3, seed=3)
    system = ParaDoxSystem(config=config, dvs=True, tracing=True)
    return system.run(bitcount_small, seed=3)


class TestJsonl:
    def test_round_trip(self, traced_run, tmp_path):
        events = events_from_dicts(traced_run.trace)
        path = str(tmp_path / "run.jsonl")
        written = write_jsonl_path(path, events, meta={"seed": 3})
        meta, loaded = read_jsonl_path(path)
        assert written == len(events) == len(loaded)
        assert meta == {"seed": 3}
        assert [e.to_dict() for e in loaded] == traced_run.trace
        assert validate_jsonl_path(path) == len(events)

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 0.0, "src": "engine", "kind": "commit"}\n')
        with pytest.raises(SchemaError):
            read_jsonl_path(str(path))

    def test_rejects_future_version(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"schema": SCHEMA_NAME, "version": 999}) + "\n")
        with pytest.raises(SchemaError):
            read_jsonl_path(str(path))

    def test_rejects_malformed_event_with_line_number(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        header = json.dumps({"schema": SCHEMA_NAME, "version": 1, "meta": {}})
        path.write_text(header + "\n" + '{"src": "engine"}\n')
        with pytest.raises(SchemaError, match="line 2"):
            read_jsonl_path(str(path))

    def test_loads_a_version_1_file_with_scheduling_busy(self, tmp_path):
        """Older version-1 files repeat every dispatch as a ``scheduling``
        ``busy`` line: they still load, and draw one slice per check."""
        events = [
            TraceEvent(10.0, "scheduling", "busy", segment=1, core=2, value=40.0),
            TraceEvent(10.0, "engine", "dispatch", segment=1, core=2, value=40.0),
        ]
        path = tmp_path / "v1.jsonl"
        header = json.dumps({"schema": SCHEMA_NAME, "version": 1, "meta": {}})
        lines = [header] + [json.dumps(event.to_dict()) for event in events]
        path.write_text("\n".join(lines) + "\n")
        _meta, loaded = read_jsonl_path(str(path))
        assert loaded == events
        slices = [
            event
            for event in to_perfetto(loaded)["traceEvents"]
            if event.get("ph") == "X"
        ]
        assert [(s["name"], s["ts"], s["dur"]) for s in slices] == [
            ("check seg 1", 0.01, 0.04)
        ]


class TestPerfetto:
    @pytest.fixture(scope="class")
    def document(self, traced_run):
        return to_perfetto(events_from_dicts(traced_run.trace), label="test-run")

    def test_document_shape(self, document):
        assert document["otherData"]["schema"] == SCHEMA_NAME
        assert isinstance(document["traceEvents"], list)
        assert json.loads(json.dumps(document)) == document  # serializable

    def test_main_and_checker_threads_named(self, document):
        names = {
            event["args"]["name"]
            for event in document["traceEvents"]
            if event.get("name") == "thread_name"
        }
        assert "main core" in names
        assert any(name.startswith("checker ") for name in names)

    def test_segments_become_slices(self, document, traced_run):
        main_slices = [
            event
            for event in document["traceEvents"]
            if event.get("ph") == "X" and event["tid"] == 0
        ]
        assert len(main_slices) == traced_run.segments
        assert all(event["dur"] >= 0 for event in main_slices)
        checker_slices = [
            event
            for event in document["traceEvents"]
            if event.get("ph") == "X" and event["tid"] >= 100
        ]
        assert len(checker_slices) == traced_run.segments

    def test_voltage_counter_track(self, document):
        counters = {
            event["name"]
            for event in document["traceEvents"]
            if event.get("ph") == "C"
        }
        assert "voltage (V)" in counters
        assert "checkpoint target (instrs)" in counters

    def test_detections_become_instants(self, document, traced_run):
        instants = [
            event
            for event in document["traceEvents"]
            if event.get("ph") == "i" and event["name"].startswith("detect")
        ]
        assert len(instants) == traced_run.errors_detected

    def test_merge_traces_assigns_one_pid_per_run(self, traced_run):
        events = events_from_dicts(traced_run.trace)
        merged = merge_traces([("first", events), ("second", events)])
        assert merged["otherData"]["runs"] == 2
        assert {event["pid"] for event in merged["traceEvents"]} == {1, 2}


class TestDispatchSlices:
    """Each check is recorded once, as an ``engine`` ``dispatch`` event,
    and Perfetto draws its checker slice from that event: on every
    workload, in a resilient ParaDox run that detects, rolls back and
    squashes."""

    @pytest.fixture(scope="class", params=ALL_WORKLOADS)
    def resilient_run(self, request):
        workload = resolve_workload(request.param, 0.1)
        config = table1_config().with_error_rate(5e-3, seed=3)
        system = ParaDoxSystem(config=config, resilient=True, tracing=True)
        return system.run(workload, seed=3)

    def test_no_scheduling_busy_events(self, resilient_run):
        """No ``scheduling`` ``busy`` event repeats a dispatch, and the
        dispatch and abort metrics count each event once."""
        assert resilient_run.errors_detected > 0
        events = events_from_dicts(resilient_run.trace)
        kinds = [(event.source, event.kind) for event in events]
        assert ("scheduling", "busy") not in kinds
        dispatches = [e for e in events if (e.source, e.kind) == ("engine", "dispatch")]
        counters = resilient_run.metrics["counters"]
        busy_ns = resilient_run.metrics["histograms"]["scheduling.busy_ns"]
        assert counters["scheduling.dispatches"] == len(dispatches) > 0
        assert busy_ns["total"] == len(dispatches)
        assert busy_ns["sum"] == pytest.approx(sum(e.value for e in dispatches))
        aborts = kinds.count(("scheduling", "abort"))
        assert counters["scheduling.aborts"] == aborts > 0

    def test_one_checker_slice_per_dispatch(self, resilient_run):
        events = events_from_dicts(resilient_run.trace)
        dispatches = [e for e in events if (e.source, e.kind) == ("engine", "dispatch")]
        document = to_perfetto(events)["traceEvents"]
        threads = {
            event["tid"]: event["args"]["name"]
            for event in document
            if event.get("name") == "thread_name"
        }
        slices = [
            event
            for event in document
            if event.get("ph") == "X" and event["name"].startswith("check seg ")
        ]
        assert len(slices) == len(dispatches) > 0
        for dispatch, drawn in zip(dispatches, slices):
            assert drawn["name"] == f"check seg {dispatch.segment}"
            assert threads[drawn["tid"]] == f"checker {dispatch.core}"
            assert drawn["ts"] == dispatch.time_ns / 1000.0
            assert drawn["dur"] == dispatch.value / 1000.0


class TestCrossWorkerDeterminism:
    @pytest.fixture(scope="class")
    def suites(self):
        from repro.experiments.spec_runs import run_spec_suite

        kwargs = dict(
            iterations=3,
            names=["bzip2"],
            systems=("baseline", "paradox"),
            tracing=True,
        )
        serial = run_spec_suite(jobs=1, **kwargs)
        parallel = run_spec_suite(jobs=4, **kwargs)
        return serial, parallel

    def test_traces_identical_across_jobs_widths(self, suites):
        serial, parallel = suites
        for system in ("baseline", "paradox"):
            left = serial.by_system(system)["bzip2"]
            right = parallel.by_system(system)["bzip2"]
            assert left.trace == right.trace
            assert left.metrics == right.metrics

    def test_suite_merges_into_one_report(self, suites):
        serial, _ = suites
        merged = serial.merged_metrics()
        assert merged["merged_runs"] == 2
        assert merged["skipped_runs"] == 0
        per_run = [
            result.metrics["counters"]["engine.instructions"]
            for _, _, result in serial.all_results()
        ]
        assert merged["counters"]["engine.instructions"] == sum(per_run)


class TestCampaignTelemetry:
    @pytest.fixture(scope="class")
    def report(self):
        from repro.resilience import CampaignSpec, run_campaign

        spec = CampaignSpec(
            workload="bitcount",
            scale=0.25,
            seeds=4,
            rates=(1e-4,),
            timeout_s=60.0,
            workers=4,
            tracing=True,
        )
        return run_campaign(spec)

    def test_workers_ship_telemetry_through_the_pipe(self, report):
        shipped = [r for r in report.records if r.metrics is not None]
        assert len(shipped) == len(report.records) == 4

    def test_merged_metrics_covers_every_run(self, report):
        merged = report.merged_metrics()
        assert merged["merged_runs"] == 4
        assert merged["skipped_runs"] == 0

    def test_merged_trace_is_one_artifact(self, report):
        merged = report.merged_trace()
        pids = {event["pid"] for event in merged["traceEvents"]}
        assert pids == {1, 2, 3, 4}

    def test_report_json_stays_lean(self, report):
        # The raw event stream is exported separately; the classified
        # report must not inline it.
        data = report.to_dict()
        assert all("trace" not in record for record in data["records"])
