"""Campaign runner: classification, crash isolation, watchdog, report."""

import hashlib
import json
import sys

import pytest

from repro.cli import build_parser, campaign_spec_from_args
from repro.parallel import run_fanout
from repro.resilience import CampaignSpec, RunClass, run_campaign, smoke_spec
from repro.resilience.campaign import classify_result, execute_run

#: SHA-256 of the canonical reports of the two traced campaigns in
#: ``TestWarmCells``, first recorded when every cell built, golden-ran
#: and compiled its own workload, and re-recorded when compiled blocks
#: began to run through pending detections and to end with their
#: region's branch (only the ``jit.dispatches``, ``jit.instructions``
#: and ``jit.activations`` gauges moved).
COLD_REPORTS_SHA256 = "8efe0e36b45c6a533db50c9e58f1bc043c2b60e8de7541fab56fdcd7e2b64f11"


def ok_message(**overrides):
    message = {
        "status": "ok",
        "outcome": "completed",
        "matches_golden": True,
        "recoveries": 0,
        "faults_injected": 0,
        "instructions": 1000,
        "quarantined": [],
        "escalations": {},
        "failure": None,
        "duration_s": 0.1,
    }
    message.update(overrides)
    return message


class TestClassification:
    def test_masked(self):
        cls, _ = classify_result(ok_message(faults_injected=3))
        assert cls is RunClass.MASKED

    def test_detected_recovered(self):
        cls, _ = classify_result(ok_message(recoveries=2, faults_injected=2))
        assert cls is RunClass.DETECTED_RECOVERED

    def test_degraded_by_quarantine(self):
        cls, detail = classify_result(ok_message(recoveries=3, quarantined=[4]))
        assert cls is RunClass.DEGRADED
        assert "4" in detail

    def test_degraded_by_escalation(self):
        cls, _ = classify_result(
            ok_message(recoveries=9, escalations={"shrink": 1, "voltage": 2})
        )
        assert cls is RunClass.DEGRADED

    def test_sdc(self):
        cls, _ = classify_result(ok_message(matches_golden=False))
        assert cls is RunClass.SDC

    def test_livelock_and_fpf_are_hangs(self):
        cls, _ = classify_result(ok_message(outcome="livelock"))
        assert cls is RunClass.HANG
        cls, detail = classify_result(
            ok_message(
                outcome="forward_progress_failure", failure="stuck-at bit 3"
            )
        )
        assert cls is RunClass.HANG
        assert "stuck-at" in detail

    def test_sdc_outranks_degraded(self):
        cls, _ = classify_result(
            ok_message(matches_golden=False, quarantined=[1])
        )
        assert cls is RunClass.SDC


class TestSpec:
    def test_expand_cycles_models_over_runs(self):
        spec = CampaignSpec(seeds=4, rates=(1e-4, 1e-3), models=("transient", "burst"))
        payloads = spec.expand()
        assert len(payloads) == 8
        assert [p["model"] for p in payloads[:4]] == [
            "transient", "burst", "transient", "burst",
        ]
        assert [p["run_id"] for p in payloads] == list(range(8))

    def test_expand_rejects_unknown_models(self):
        with pytest.raises(ValueError):
            CampaignSpec(models=("cosmic-ray",)).expand()

    def test_smoke_spec_is_small(self):
        spec = smoke_spec()
        assert len(spec.expand()) <= 12

    def test_chip_seed_axis_multiplies_the_grid(self):
        spec = CampaignSpec(
            seeds=2,
            rates=(1e-4,),
            models=("sram",),
            chip_seeds=3,
            first_chip_seed=10,
        )
        payloads = spec.expand()
        assert len(payloads) == 6  # chips x seeds x rates
        assert [p["chip_seed"] for p in payloads] == [10, 10, 11, 11, 12, 12]
        assert all(p["model"] == "sram" for p in payloads)

    def test_default_chip_axis_leaves_grid_unchanged(self):
        payloads = CampaignSpec(seeds=3, rates=(1e-4,)).expand()
        assert len(payloads) == 3
        assert all(p["chip_seed"] == 0 for p in payloads)

    def test_pinned_voltage_reaches_payloads(self):
        spec = CampaignSpec(seeds=1, models=("sram",), voltage=0.97)
        assert spec.expand()[0]["voltage"] == 0.97


class TestExecuteRun:
    def test_single_run_in_process(self):
        result = execute_run(
            {
                "run_id": 0,
                "workload": "bitcount",
                "scale": 0.2,
                "seed": 1,
                "rate": 1e-4,
                "model": "transient",
                "dvs": False,
                "initial_margin": 0.15,
            }
        )
        assert result["status"] == "ok"
        assert result["outcome"] in (
            "completed", "livelock", "forward_progress_failure",
        )


class TestIsolation:
    def test_crash_hang_and_error_workers_are_contained(self):
        spec = CampaignSpec(
            seeds=3,
            scale=0.2,
            models=("transient",),
            workers=3,
            timeout_s=5.0,
            hooks={0: "crash", 1: "error", 2: "hang"},
        )
        report = run_campaign(spec)
        by_id = {r.run_id: r for r in report.records}
        assert len(by_id) == 3
        assert by_id[0].run_class is RunClass.CRASH
        assert "exit code" in by_id[0].detail
        assert by_id[1].run_class is RunClass.CRASH
        assert "campaign error hook" in (by_id[1].traceback or "")
        assert by_id[2].run_class is RunClass.HANG
        assert "watchdog" in by_id[2].detail

    def test_hanging_worker_does_not_stall_other_slots(self):
        """A worker sleeping past timeout_s is terminated and classified
        ``hang`` while the remaining runs keep flowing through the other
        slot: total campaign time stays near one watchdog period, not
        near ``timeout_s`` per queued run."""
        import time

        spec = CampaignSpec(
            seeds=6,
            scale=0.2,
            models=("transient",),
            workers=2,
            timeout_s=6.0,
            hooks={0: "hang"},
        )
        started = time.monotonic()
        order = []
        report = run_campaign(spec, progress=lambda r: order.append(r.run_id))
        elapsed = time.monotonic() - started
        by_id = {r.run_id: r for r in report.records}
        assert len(by_id) == 6
        assert by_id[0].run_class is RunClass.HANG
        assert "watchdog timeout" in by_id[0].detail
        for run_id in range(1, 6):
            assert by_id[run_id].run_class is not RunClass.HANG
            assert by_id[run_id].run_class is not RunClass.CRASH
        # Runs completed while the hung slot was still inside its
        # watchdog window (they classify before run 0 does).
        assert order.index(0) > 0
        # One watchdog period plus the real runs — not 6 serialized
        # timeouts (the generous bound absorbs slow CI machines).
        assert elapsed < 4 * spec.timeout_s


class TestEndToEnd:
    def test_small_campaign_classifies_every_run(self, tmp_path):
        spec = CampaignSpec(
            seeds=4,
            scale=0.2,
            rates=(3e-4,),
            models=("transient", "stuckat"),
            timeout_s=60.0,
            workers=4,
        )
        seen = []
        report = run_campaign(spec, progress=seen.append)
        assert len(report.records) == 4
        assert len(seen) == 4
        assert sum(report.counts.values()) == 4
        assert report.counts[RunClass.CRASH.value] == 0
        # The report round-trips through JSON.
        path = tmp_path / "report.json"
        report.write_json(str(path))
        data = json.loads(path.read_text())
        assert len(data["records"]) == 4
        assert set(data["counts"]) == {cls.value for cls in RunClass}
        assert report.summary_table()


def _regions_compiled_in_cell(payload):
    """Run one campaign cell; return the regions it compiled and its status."""
    from repro.jit import tier

    compile_region = tier._compile_region
    compiled = []

    def counting(table, start, *args):
        compiled.append(start)
        return compile_region(table, start, *args)

    tier._compile_region = counting
    try:
        result = execute_run(payload)
    finally:
        tier._compile_region = compile_region
    return len(compiled), result["status"]


class TestWarmCells:
    """The campaign parent prepares each workload once; cells fork from it."""

    def test_traced_reports_match_cold_cells(self):
        specs = [
            CampaignSpec(
                workload="bitcount",
                scale=0.2,
                seeds=2,
                rates=(1e-4, 3e-4),
                models=("transient", "burst", "stuckat", "sram"),
                tracing=True,
                workers=2,
            ),
            CampaignSpec(
                workload="gcc",
                scale=0.1,
                seeds=2,
                models=("transient",),
                main_cores=2,
                tracing=True,
                workers=2,
            ),
        ]
        reports = [run_campaign(spec).to_dict(canonical=True) for spec in specs]
        assert all(report["counts"]["crash"] == 0 for report in reports)
        text = json.dumps(reports, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == COLD_REPORTS_SHA256

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="workers fork only on Linux"
    )
    def test_warm_cell_compiles_nothing(self):
        from repro.resilience.campaign import _prepared

        payload = {
            "run_id": 0,
            "workload": "bitcount",
            "scale": 0.2,
            "seed": 3,
            "rate": 3e-4,
            "model": "transient",
            "dvs": True,
            "initial_margin": 0.15,
        }
        _prepared(payload["workload"], payload["scale"])
        (warm,) = run_fanout(_regions_compiled_in_cell, [payload], jobs=1)
        assert warm.value == (0, "ok")
        # The probe does see compiles: a cell forked from an empty memo
        # builds and compiles its own workload.
        _prepared.cache_clear()
        (cold,) = run_fanout(_regions_compiled_in_cell, [payload], jobs=1)
        compiled, status = cold.value
        assert status == "ok" and compiled > 0

    def test_unknown_workload_crashes_every_cell(self):
        spec = CampaignSpec(
            workload="nosuch", seeds=2, models=("transient",), workers=2
        )
        report = run_campaign(spec)
        assert len(report.records) == 2
        for record in report.records:
            assert record.run_class is RunClass.CRASH
            assert "unknown workload 'nosuch'" in (record.traceback or "")


class TestSramCampaign:
    def test_sram_sweep_is_bit_identical_at_any_jobs_width(self):
        """The chip map is regenerated from the chip seed inside each
        worker, so classification, fault counts, and skip accounting
        are identical whether runs execute serially or fanned out."""

        def run_at_width(workers):
            spec = CampaignSpec(
                seeds=2,
                scale=0.2,
                rates=(1e-4,),
                models=("sram",),
                chip_seeds=2,
                timeout_s=60.0,
                workers=workers,
            )
            report = run_campaign(spec)
            return [
                (
                    r.run_id,
                    r.chip_seed,
                    r.run_class,
                    r.outcome,
                    r.recoveries,
                    r.faults_injected,
                    r.instructions,
                )
                for r in report.records
            ]

        serial = run_at_width(1)
        fanned = run_at_width(3)
        assert serial == fanned
        assert len(serial) == 4
        assert all(row[2] is not RunClass.CRASH for row in serial)

    def test_geometric_vs_sram_sweep_end_to_end(self):
        """Acceptance: a fig12/13-style geometric-vs-sram comparison runs
        through the campaign machinery with zero crash-class outcomes."""
        from repro.experiments import ext_sram

        result = ext_sram.run(
            voltages=(1.00, 0.96), seeds=1, chip_seeds=2, jobs=2, scale=0.2
        )
        assert result.crash_count == 0
        assert len(result.points) == 6  # 2 voltages x 3 modes
        assert result.table()
        # At the higher supply the maps are (near-)clean; at the lower
        # one the sram runs see persistent faults the geometric model
        # cannot represent.
        low_sram = [
            p for p in result.points if p.mode == "sram" and p.voltage == 0.96
        ]
        assert low_sram and low_sram[0].runs == 2


class TestCli:
    def test_campaign_parser(self):
        parser = build_parser()
        args = parser.parse_args(
            ["campaign", "--smoke", "--json", "out.json", "--quiet"]
        )
        assert args.smoke and args.json == "out.json"
        args = parser.parse_args(
            ["campaign", "--seeds", "200", "--rate", "1e-4", "--models", "burst"]
        )
        assert args.seeds == 200 and args.rate == [1e-4]

    def test_campaign_sram_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "campaign",
                "--fault-model",
                "sram",
                "--fault-model",
                "sram-uniform",
                "--chip-seeds",
                "4",
                "--first-chip-seed",
                "7",
                "--voltage",
                "0.96",
            ]
        )
        spec = campaign_spec_from_args(args)
        assert spec.models == ("sram", "sram-uniform")
        assert spec.chip_seeds == 4 and spec.first_chip_seed == 7
        assert spec.voltage == 0.96

    def test_run_timeout_plumbs_to_fanout_timeout(self):
        """--run-timeout becomes the spec's timeout_s, which run_campaign
        hands to run_fanout as the per-run watchdog."""
        parser = build_parser()
        args = parser.parse_args(["campaign", "--run-timeout", "7.5"])
        assert campaign_spec_from_args(args).timeout_s == 7.5

    def test_run_timeout_lands_hung_run_in_timeout_class(self):
        """End to end: a hung worker under --run-timeout is terminated
        and classified ``hang`` via the fan-out's timeout outcome."""
        parser = build_parser()
        args = parser.parse_args(
            ["campaign", "--seeds", "1", "--scale", "0.2", "--run-timeout", "3"]
        )
        spec = campaign_spec_from_args(args)
        spec.hooks = {0: "hang"}
        report = run_campaign(spec)
        assert report.records[0].run_class is RunClass.HANG
        assert "watchdog timeout" in report.records[0].detail

    def test_run_resilient_flag(self):
        parser = build_parser()
        args = parser.parse_args(["run", "bitcount", "--resilient"])
        assert args.resilient
