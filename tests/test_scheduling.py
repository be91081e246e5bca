"""Checker pool scheduling: round-robin vs lowest-free-ID, gating stats."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ParaDoxSystem
from repro.scheduling import CheckerPool, SchedulingPolicy
from repro.workloads import build_bitcount


def make_pool(policy, count=4, boot_offset=0):
    return CheckerPool(count, policy, boot_offset=boot_offset)


class TestLowestFreeId:
    def test_prefers_lowest_free(self):
        pool = make_pool(SchedulingPolicy.LOWEST_FREE_ID)
        core, start = pool.select(0.0)
        assert core == 0 and start == 0.0
        pool.dispatch(core, 1, 0.0, 100.0)
        core2, _ = pool.select(10.0)
        assert core2 == 1  # 0 busy until 100

    def test_reuses_zero_once_free(self):
        pool = make_pool(SchedulingPolicy.LOWEST_FREE_ID)
        core, _ = pool.select(0.0)
        pool.dispatch(core, 1, 0.0, 50.0)
        core2, _ = pool.select(60.0)
        assert core2 == 0

    def test_all_busy_waits_for_earliest(self):
        pool = make_pool(SchedulingPolicy.LOWEST_FREE_ID, count=2)
        pool.dispatch(0, 1, 0.0, 100.0)
        pool.dispatch(1, 2, 0.0, 60.0)
        core, start = pool.select(10.0)
        assert core == 1
        assert start == 60.0

    def test_boot_offset_rotates_ids(self):
        pool = make_pool(SchedulingPolicy.LOWEST_FREE_ID, count=4, boot_offset=2)
        core, _ = pool.select(0.0)
        assert core == 2

    def test_concentrates_on_low_ids(self):
        pool = make_pool(SchedulingPolicy.LOWEST_FREE_ID, count=8)
        now = 0.0
        for seq in range(20):
            core, start = pool.select(now)
            pool.dispatch(core, seq, max(start, now), 10.0)
            now += 30.0  # fill slower than checking: one core suffices
        rates = pool.wake_rates(now)
        assert rates[0] > 0
        assert all(rate == 0 for rate in rates[2:])


class TestRoundRobin:
    def test_cycles_through_cores(self):
        pool = make_pool(SchedulingPolicy.ROUND_ROBIN, count=4)
        ids = []
        now = 0.0
        for seq in range(4):
            core, start = pool.select(now)
            pool.dispatch(core, seq, max(start, now), 5.0)
            ids.append(core)
            now += 100.0
        assert ids == [0, 1, 2, 3]

    def test_spreads_even_when_low_ids_free(self):
        pool = make_pool(SchedulingPolicy.ROUND_ROBIN, count=4)
        now = 0.0
        for seq in range(8):
            core, start = pool.select(now)
            pool.dispatch(core, seq, max(start, now), 10.0)
            now += 50.0
        rates = pool.wake_rates(now)
        assert all(rate > 0 for rate in rates)  # everyone woke up

    def test_skips_busy_core(self):
        pool = make_pool(SchedulingPolicy.ROUND_ROBIN, count=3)
        pool.dispatch(0, 1, 0.0, 1000.0)
        # Pointer moved to 1; both 1 and 2 are free.
        core, _ = pool.select(0.0)
        assert core == 1
        core2, _ = pool.select(0.0)
        assert core2 == 2

    def test_boot_offset_rotates_cycle(self):
        """Regression: RR must walk the boot-rotated ring, not physical IDs.

        The anti-ageing rotation says logical ID 0 is a random physical
        core; a round-robin that starts every boot at physical 0 defeats
        it (the same silicon always ages first).
        """
        pool = make_pool(SchedulingPolicy.ROUND_ROBIN, count=4, boot_offset=2)
        ids = []
        now = 0.0
        for seq in range(4):
            core, start = pool.select(now)
            pool.dispatch(core, seq, max(start, now), 5.0)
            ids.append(core)
            now += 100.0
        assert ids == [2, 3, 0, 1]

    def test_boot_offset_first_pick(self):
        pool = make_pool(SchedulingPolicy.ROUND_ROBIN, count=4, boot_offset=3)
        core, _ = pool.select(0.0)
        assert core == 3


class TestDispatchAndAbort:
    def test_dispatch_occupies(self):
        pool = make_pool(SchedulingPolicy.LOWEST_FREE_ID)
        record = pool.dispatch(0, 7, 10.0, 20.0)
        assert pool.busy_until_ns[0] == 30.0
        assert record.segment_seq == 7

    def test_abort_reclaims_time(self):
        pool = make_pool(SchedulingPolicy.LOWEST_FREE_ID)
        record = pool.dispatch(0, 1, 0.0, 100.0)
        assert pool.abort(record, at_ns=40.0) == 60.0
        assert pool.busy_until_ns[0] == 40.0
        assert pool.busy_ns() == 40.0

    def test_abort_after_completion_is_noop(self):
        pool = make_pool(SchedulingPolicy.LOWEST_FREE_ID)
        record = pool.dispatch(0, 1, 0.0, 50.0)
        assert pool.abort(record, at_ns=80.0) is None
        assert pool.busy_until_ns[0] == 50.0
        assert pool.busy_ns() == 50.0

    def test_last_core_id_tracked(self):
        """The engine remembers the checker of its latest dispatch: the
        next log segment stores it for continuity (figure 5)."""
        workload = build_bitcount(values=8)
        engine = ParaDoxSystem().engine(workload)
        assert engine._last_checker_id is None
        engine.run(workload.max_instructions)
        assert engine._last_checker_id == engine.pool.dispatches[-1].core_id

    def test_abort_before_start_cannot_rewind_earlier_dispatch(self):
        """Regression: squashing a not-yet-started check must not free
        the core below an earlier, unaborted check's end."""
        pool = make_pool(SchedulingPolicy.LOWEST_FREE_ID)
        pool.dispatch(0, 1, 0.0, 100.0)  # runs [0, 100)
        second = pool.dispatch(0, 2, 100.0, 50.0)  # [100, 150)
        pool.abort(second, at_ns=30.0)  # squash lands before it began
        # The unconditional min() rewound busy_until to 30 here, letting
        # a third check overlap the still-running first one.
        assert pool.busy_until_ns[0] == 100.0
        assert second.end_ns == 100.0
        assert pool.busy_ns() == 100.0

    @settings(max_examples=80, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),  # core id
                st.floats(min_value=0.0, max_value=500.0),  # start
                st.floats(min_value=1.0, max_value=200.0),  # duration
                st.booleans(),  # abort it?
                st.floats(min_value=0.0, max_value=800.0),  # abort time
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_abort_invariants_hold(self, ops):
        """After any dispatch/abort interleaving, each core's busy-until
        time equals the max end of its remaining records, no record ends
        before it starts, and an abort reclaims exactly what it cut."""
        pool = make_pool(SchedulingPolicy.LOWEST_FREE_ID, count=3)
        records = []
        for seq, (core_id, start, duration, do_abort, abort_at) in enumerate(ops):
            start = max(start, pool.busy_until_ns[core_id])
            record = pool.dispatch(core_id, seq, start, duration)
            records.append(record)
            if do_abort:
                end_before = record.end_ns
                reclaimed = pool.abort(record, at_ns=abort_at)
                assert (reclaimed or 0.0) == end_before - record.end_ns
        for core_id in range(len(pool)):
            mine = [r for r in records if r.core_id == core_id]
            if not mine:
                continue
            assert pool.busy_until_ns[core_id] == max(r.end_ns for r in mine)
            assert all(r.end_ns >= r.start_ns for r in mine)


    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),  # main id
                st.integers(min_value=0, max_value=3),  # core id
                st.floats(min_value=0.0, max_value=500.0),  # start
                st.floats(min_value=1.0, max_value=200.0),  # duration
                st.lists(  # aborts of earlier records: (which, time)
                    st.tuples(
                        st.integers(min_value=0, max_value=50),
                        st.floats(min_value=0.0, max_value=800.0),
                    ),
                    max_size=2,
                ),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_abort_matches_a_scan_of_the_whole_history(self, ops):
        """Abort clamps each core against its own records only; after
        every step, on several cores fed by two mains, busy-until equals
        the max end over the pool's whole dispatch history filtered by
        core."""
        pool = CheckerPool(4, SchedulingPolicy.LOWEST_FREE_ID, main_count=2)

        def scanned(core_id):
            mine = [r.end_ns for r in pool.dispatches if r.core_id == core_id]
            return max(mine, default=0.0)

        records = []
        for seq, (main_id, core_id, start, duration, aborts) in enumerate(ops):
            start = max(start, pool.busy_until_ns[core_id])
            records.append(pool.dispatch(core_id, seq, start, duration, main_id))
            assert pool.busy_until_ns == [scanned(c) for c in range(len(pool))]
            for which, at_ns in aborts:
                pool.abort(records[which % len(records)], at_ns)
                assert pool.busy_until_ns == [scanned(c) for c in range(len(pool))]


class TestStatistics:
    def test_wake_rates_fraction(self):
        pool = make_pool(SchedulingPolicy.LOWEST_FREE_ID)
        pool.dispatch(0, 1, 0.0, 25.0)
        rates = pool.wake_rates(100.0)
        assert rates[0] == 0.25
        assert rates[1] == 0.0

    def test_peak_concurrency(self):
        pool = make_pool(SchedulingPolicy.LOWEST_FREE_ID)
        pool.dispatch(0, 1, 0.0, 100.0)
        pool.dispatch(1, 2, 50.0, 100.0)
        pool.dispatch(2, 3, 200.0, 10.0)
        assert pool.peak_concurrency() == 2

    def test_cores_ever_used(self):
        pool = make_pool(SchedulingPolicy.LOWEST_FREE_ID)
        pool.dispatch(0, 1, 0.0, 10.0)
        pool.dispatch(3, 2, 0.0, 10.0)
        assert sum(1 for rate in pool.wake_rates(100.0) if rate > 0) == 2

    def test_empty_pool_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            CheckerPool(0, SchedulingPolicy.ROUND_ROBIN)

    def test_earliest_free_matches_select_eligibility(self):
        """Regression: the wait ``select`` reports is for the earliest
        free *eligible* core — an ``avoid`` set narrows it."""
        pool = make_pool(SchedulingPolicy.LOWEST_FREE_ID, count=4)
        pool.dispatch(0, 1, 0.0, 100.0)
        # Unconstrained: cores 1-3 are free right now.
        assert pool.select(10.0) == (1, 10.0)
        # A retry avoiding every free core must wait for core 0, and the
        # wait is accounted to the main core.
        avoid = {1, 2, 3}
        core, start = pool.select(10.0, avoid=avoid)
        assert core == 0
        assert start == 100.0
        assert pool.wait_ns == [90.0]

    def test_earliest_free_relaxes_with_select(self):
        """If ``avoid`` would empty the pool, ``select`` drops it."""
        pool = make_pool(SchedulingPolicy.LOWEST_FREE_ID, count=2)
        pool.dispatch(0, 1, 0.0, 50.0)
        avoid = {0, 1}
        core, start = pool.select(0.0, avoid=avoid)
        assert start == 0.0 and core == 1


class TestWakeRateClamping:
    """Wake rates are fractions of the *run*: overruns must clamp."""

    def test_overrunning_dispatch_clamps_to_run_end(self):
        pool = make_pool(SchedulingPolicy.LOWEST_FREE_ID)
        # The check starts inside the run but finishes far beyond it;
        # raw busy/total would be 150/100 = 1.5.
        pool.dispatch(0, 1, 50.0, 150.0)
        rates = pool.wake_rates(100.0)
        assert rates[0] == 0.5

    def test_dispatch_entirely_after_run_end_counts_nothing(self):
        pool = make_pool(SchedulingPolicy.LOWEST_FREE_ID)
        pool.dispatch(0, 1, 100.0, 50.0)
        assert pool.wake_rates(100.0)[0] == 0.0

    def test_multiple_overruns_still_bounded(self):
        pool = make_pool(SchedulingPolicy.LOWEST_FREE_ID)
        now = 0.0
        for seq in range(5):
            pool.dispatch(0, seq, now, 40.0)
            now += 40.0
        rates = pool.wake_rates(90.0)  # run ends mid-third-check
        assert rates[0] == 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        dispatches=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # core id
                st.floats(min_value=0.0, max_value=1000.0),  # start
                st.floats(min_value=0.0, max_value=500.0),  # duration
            ),
            max_size=20,
        ),
        total_ns=st.floats(min_value=0.0, max_value=800.0),
    )
    def test_rates_always_in_unit_interval(self, dispatches, total_ns):
        pool = make_pool(SchedulingPolicy.LOWEST_FREE_ID)
        for seq, (core_id, start, duration) in enumerate(dispatches):
            pool.dispatch(core_id, seq, start, duration)
        for rate in pool.wake_rates(total_ns):
            assert 0.0 <= rate <= 1.0
