"""Multi-main-core shared checker pool: invariants, determinism, fairness."""

import json

import pytest

from repro.config import table1_config
from repro.core import ParaDoxSystem, run_multicore
from repro.core.multicore import CoreSpec, MulticoreEngine
from repro.core.systems import BaselineSystem, DetectionOnlySystem, ParaMedicSystem
from repro.experiments import ext_sharing
from repro.resilience import CampaignSpec, run_campaign
from repro.resilience.campaign import MODEL_MIXES, _build_injector
from repro.scheduling import POOL_POLICIES, CheckerPool, PoolPolicy
from repro.stats.fairness import FairnessReport, gini, shares
from repro.store import run_key
from repro.store.runkey import canonical_cell
from repro.workloads import build_bitcount, build_crc32


def small_mix(seed=7):
    return [build_bitcount(values=48, seed=seed), build_crc32(length_words=24, seed=seed)]


def run_mix(policy, pool_size=4, seed=11, tracing=False):
    return run_multicore(
        small_mix(), policy=policy, pool_size=pool_size, seed=seed, tracing=tracing
    )


class TestSharedPoolInvariants:
    @pytest.mark.parametrize("policy", list(PoolPolicy))
    def test_no_two_mains_overlap_on_one_checker(self, policy):
        specs = [CoreSpec(workload=w) for w in small_mix()]
        harness = MulticoreEngine(specs, policy=policy, pool_size=2, seed=3)
        harness.run()
        by_core = {}
        for record in harness.pool.dispatches:
            by_core.setdefault(record.core_id, []).append(record)
        assert harness.pool.dispatches, "the mix must actually dispatch"
        for records in by_core.values():
            records.sort(key=lambda r: (r.start_ns, r.end_ns))
            for earlier, later in zip(records, records[1:]):
                assert earlier.end_ns <= later.start_ns + 1e-9

    def test_static_partition_never_crosses_the_fence(self):
        specs = [CoreSpec(workload=w) for w in small_mix()]
        harness = MulticoreEngine(
            specs, policy=PoolPolicy.STATIC, pool_size=4, seed=3
        )
        harness.run()
        for main_id in range(len(specs)):
            allowed = set(harness.pool.candidates[main_id])
            used = {
                r.core_id for r in harness.pool.dispatches if r.main_id == main_id
            }
            assert used <= allowed
            assert len(allowed) == 2  # 4 checkers split two ways

    def test_reservation_keeps_a_private_stripe(self):
        pool = CheckerPool(8, main_count=2, policy=PoolPolicy.RESERVATION)
        # 8 checkers, 2 mains: a 2-core stripe each, never lent out.
        stripes = [set(pool.candidates[m][:2]) for m in range(2)]
        assert stripes[0].isdisjoint(pool.candidates[1])
        assert stripes[1].isdisjoint(pool.candidates[0])

    def test_boot_offset_rotates_every_policy(self):
        for policy in PoolPolicy:
            pool = CheckerPool(6, boot_offset=4, main_count=2, policy=policy)
            flat = [c for m in range(2) for c in pool.candidates[m]]
            assert set(flat) <= set(range(6))
            # Logical ID 0 is physical core 4 after rotation.
            assert pool.candidates[0][0] == 4

    def test_one_main_sees_the_whole_ring_under_every_policy(self):
        for policy in PoolPolicy:
            pool = CheckerPool(6, boot_offset=4, policy=policy)
            assert pool.candidates == [[4, 5, 0, 1, 2, 3]]

    def test_undersized_pool_rejected(self):
        with pytest.raises(ValueError):
            CheckerPool(2, main_count=4)

    def test_paranoid_accepts_a_fully_quarantined_static_slice(self):
        """The static fence never relaxes, so a main whose whole slice is
        quarantined keeps dispatching to it: the quarantine invariant
        must judge against that main's candidates, not the whole pool."""
        from repro.oracle.invariants import ParanoidChecker

        specs = [CoreSpec(workload=w) for w in small_mix()]
        harness = MulticoreEngine(
            specs,
            policy=PoolPolicy.STATIC,
            pool_size=4,
            seed=3,
            default_system=ParaDoxSystem(resilient=True),
        )
        engine = harness.engines[0]
        for core_id in harness.pool.candidates[0]:
            while not engine.health.is_quarantined(core_id):
                engine.health.record_vindication(core_id, 0.0)
        ParanoidChecker._check_pool(engine, "test")

    def test_non_checking_system_rejected(self):
        specs = [CoreSpec(workload=w, system=BaselineSystem()) for w in small_mix()]
        with pytest.raises(ValueError):
            MulticoreEngine(specs, pool_size=4, seed=1)

    @pytest.mark.parametrize("system", [ParaMedicSystem(), DetectionOnlySystem()])
    def test_round_robin_system_rejected(self, system):
        """A shared pool schedules lowest-free-ID only: a round-robin
        system must be refused, not silently run as ParaDox."""
        specs = [CoreSpec(workload=w, system=system) for w in small_mix()]
        with pytest.raises(ValueError, match=system.name):
            MulticoreEngine(specs, pool_size=4, seed=1)

    def test_main_id_outside_the_pool_rejected(self):
        """An engine numbered past its pool's mains would schedule as
        main 0 and report none of the pool's dispatches as its own."""
        pool = CheckerPool(4, main_count=1)
        with pytest.raises(ValueError, match="main core 1"):
            ParaDoxSystem().engine(small_mix()[0], pool=pool, main_id=1)


class TestFairnessMetrics:
    def test_shares_sum_to_one(self):
        result = run_mix(PoolPolicy.WORK_STEALING)
        assert sum(result.fairness.dispatch_share) == pytest.approx(1.0)
        assert sum(result.fairness.busy_share) == pytest.approx(1.0)

    def test_gini_bounds_and_edge_cases(self):
        assert gini([]) == 0.0
        assert gini([0.0, 0.0]) == 0.0
        assert gini([5.0, 5.0, 5.0]) == pytest.approx(0.0)
        # All waiting concentrated on one of N mains approaches (N-1)/N.
        assert gini([10.0, 0.0]) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            gini([-1.0])

    def test_shares_of_nothing_stay_zero(self):
        assert shares([0.0, 0.0]) == [0.0, 0.0]

    def test_report_round_trips(self):
        result = run_mix(PoolPolicy.RESERVATION)
        data = result.fairness.to_dict()
        again = FairnessReport.from_dict(data)
        assert again.to_dict() == data


class TestDeterminism:
    @pytest.mark.parametrize("policy", list(PoolPolicy))
    def test_bit_identical_across_repeats(self, policy):
        first = run_mix(policy, pool_size=2)
        second = run_mix(policy, pool_size=2)
        assert first.to_dict() == second.to_dict()

    def test_contention_shows_up_as_checker_wait(self):
        # A pool of one checker per main under static split is the
        # single-core case; the shared timeline only diverges once the
        # mains actually compete for the same silicon.
        contended = run_mix(PoolPolicy.WORK_STEALING, pool_size=2)
        roomy = run_mix(PoolPolicy.WORK_STEALING, pool_size=16)
        assert sum(contended.fairness.wait_ns) >= sum(roomy.fairness.wait_ns)

    def test_every_core_completes(self):
        result = run_mix(PoolPolicy.WORK_STEALING)
        assert [r.outcome.value for r in result.results] == ["completed"] * 2


class TestTelemetry:
    def test_multicore_events_emitted(self):
        result = run_mix(PoolPolicy.WORK_STEALING, tracing=True)
        assert result.trace
        assert all(event["src"] == "multicore" for event in result.trace)
        kinds = {event["kind"] for event in result.trace}
        assert {"core_done", "dispatch_share", "busy_share", "wait_ns", "wait_gini"} <= kinds
        # Events are JSONL-ready.
        json.dumps(result.trace)


class TestRunKeyStability:
    BASE = {
        "workload": "bitcount",
        "scale": 0.2,
        "seed": 1,
        "rate": 1e-4,
        "model": "transient",
        "dvs": True,
        "initial_margin": 0.05,
        "chip_seed": 0,
        "voltage": None,
        "tracing": False,
        "hook": None,
    }

    def test_single_core_cells_keep_their_keys(self):
        """main_cores=1 must hash exactly like a pre-multicore payload."""
        implicit = run_key(self.BASE)
        explicit = run_key({**self.BASE, "main_cores": 1})
        assert implicit == explicit
        assert "main_cores" not in canonical_cell(self.BASE)

    def test_multicore_cells_fork_the_key(self):
        multi = {**self.BASE, "main_cores": 2, "pool_policy": "static"}
        assert run_key(multi) != run_key(self.BASE)
        assert run_key(multi) != run_key({**multi, "pool_policy": "steal"})
        cell = canonical_cell(multi)
        assert cell["main_cores"] == 2 and cell["pool_policy"] == "static"


def multicore_spec(workers, policy="steal"):
    return CampaignSpec(
        seeds=1,
        scale=0.2,
        rates=(1e-4,),
        models=("transient",),
        timeout_s=120.0,
        workers=workers,
        main_cores=2,
        pool_policy=policy,
    )


class TestMulticoreCampaign:
    @pytest.mark.parametrize("policy", sorted(POOL_POLICIES))
    def test_campaign_runs_every_policy(self, policy):
        report = run_campaign(multicore_spec(workers=1, policy=policy))
        assert len(report.records) == 1
        record = report.records[0]
        assert record.run_class.value != "crash", record.detail
        assert record.fairness is not None
        assert sum(record.fairness["dispatch_share"]) == pytest.approx(1.0)
        assert len(record.fairness["wait_ns"]) == 2

    def test_bit_identical_at_any_workers_width(self):
        def rows(workers):
            report = run_campaign(multicore_spec(workers))
            return [
                (
                    r.run_id,
                    r.run_class,
                    r.outcome,
                    r.recoveries,
                    r.faults_injected,
                    r.instructions,
                    r.fairness,
                )
                for r in report.records
            ]

        assert rows(1) == rows(2)

    def test_record_round_trips_fairness(self):
        from repro.resilience.campaign import RunRecord

        report = run_campaign(multicore_spec(workers=1))
        record = report.records[0]
        again = RunRecord.from_dict(record.to_dict())
        assert again.fairness == record.fairness
        # Single-core records keep their golden dict shape.
        single = run_campaign(
            CampaignSpec(
                seeds=1, scale=0.2, rates=(1e-4,), models=("transient",), workers=1
            )
        ).records[0]
        assert "fairness" not in single.to_dict()

    def test_spec_dict_omits_multicore_fields_when_single(self):
        single = CampaignSpec(seeds=1, rates=(1e-4,), models=("transient",))
        assert "main_cores" not in single.to_dict()
        multi = multicore_spec(workers=1)
        assert multi.to_dict()["main_cores"] == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            multicore_spec(workers=1, policy="anarchy").expand()


class TestDiffcheckPerCore:
    def test_diffcheck_clean_for_each_mix_member(self):
        """Each main core replays its own program; the differential
        oracle must stay clean for every workload of the mix."""
        from repro.cli import main

        for name in ("bitcount", "crc32"):
            assert main(["diffcheck", name, "--scale", "0.2"]) == 0


class TestCliMulticore:
    def test_run_multicore_summary(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run", "bitcount,crc32", "--main-cores", "2",
                "--pool-policy", "static", "--scale", "0.2", "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "policy=static" in out
        assert "main0" in out and "main1" in out

    def test_timeline_rejected_multicore(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "bitcount", "--main-cores", "2", "--timeline"])

    def test_round_robin_system_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="paramedic"):
            main(
                [
                    "run", "bitcount,crc32", "--main-cores", "2",
                    "--system", "paramedic", "--scale", "0.2",
                ]
            )


IDENTITY_SEED = 5


def identity_run(mix, policy=None, boot=None):
    """bitcount under ``mix`` at rate 1e-3: on a private pool (``policy``
    None), or as the one main of a shared pool given the private
    engine's seed, injector and boot offset."""
    seed = IDENTITY_SEED
    workload = build_bitcount(values=32, seed=seed)
    system = ParaDoxSystem(config=table1_config(), resilient=True)
    payload = {
        "seed": seed, "rate": 1e-3, "model": mix, "chip_seed": 0,
        "dvs": True, "initial_margin": 0.15,
    }
    injector = _build_injector(payload, system.config.checker.count)
    if policy is None:
        engine = system.engine(workload, seed=seed, injector=injector)
        boot = engine.pool.boot_offset
    else:
        harness = MulticoreEngine(
            [CoreSpec(workload=workload, seed=seed, injector=injector)],
            policy=policy,
            seed=seed,
            boot_offset=boot,
            default_system=system,
        )
        engine = harness.engines[0]
    # Bind core-bound defects to the first checker either pool picks.
    for model in injector.models:
        if model.bound_checker_id is not None:
            model.bound_checker_id = boot
    result = engine.run(workload.max_instructions)
    return boot, {
        "wall_ns": result.wall_ns,
        "instructions": result.instructions,
        "instructions_executed": result.instructions_executed,
        "segments": result.segments,
        "recoveries": result.recoveries,
        "stalls": result.stalls,
        "wake_rates": result.checker_wake_rates,
        "peak": result.checker_peak_concurrency,
        "quarantine": result.quarantine_events,
        "escalations": result.escalations,
        "outcome": result.outcome,
        "faults": result.faults_injected,
        "output": result.program_output,
        "memory": engine.memory,
    }


class TestSingleCoreIsOneMain:
    """Single-core is the M=1 case of the shared pool, for every fault
    model mix under every arbitration policy."""

    @pytest.fixture(scope="class", params=MODEL_MIXES)
    def private(self, request):
        return request.param, identity_run(request.param)

    @pytest.mark.parametrize("policy", list(PoolPolicy))
    def test_one_main_matches_private_pool(self, private, policy):
        mix, (boot, expected) = private
        assert expected["faults"] > 0
        _, shared = identity_run(mix, policy, boot)
        assert shared == expected


class TestPaperClaim:
    """Figure 12's closing claim, on co-simulated shared pools."""

    @pytest.fixture(scope="class")
    def sharing(self):
        return ext_sharing.run(iterations=8, pool_sizes=(16, 8, 4, 2))

    def test_sixteen_shared_checkers_suffice_for_two_cores(self, sharing):
        """The halving claim: 2 main cores x 16 private checkers can share
        one 16-checker pool with no core more than 1% slower."""
        assert sharing.max_slowdown(16) <= ext_sharing.SLOWDOWN_BOUND

    def test_checker_wait_monotone_in_pool_size(self, sharing):
        waits = [sharing.total_wait_ns(size) for size in sharing.pool_sizes]
        assert waits == sorted(waits, reverse=True)
        assert waits[0] > 0  # two checkers for two mains do contend
