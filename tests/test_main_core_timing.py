"""Main-core timing model: IPC effects the OoO scoreboard must show."""

from repro.config import table1_config
from repro.cores import MainCoreTiming, TournamentPredictor
from repro.isa import ArchState, Executor, MemoryImage, ProgramBuilder
from repro.memory import MemoryHierarchy


def time_program(build, max_instructions=100_000):
    """Run a builder-defined program through the timing model; return
    (cycles, instructions, timing)."""
    b = ProgramBuilder("t")
    build(b)
    program = b.build()
    config = table1_config()
    hierarchy = MemoryHierarchy(config)
    predictor = TournamentPredictor(config.branch_predictor)
    timing = MainCoreTiming(config.main_core, hierarchy, predictor, program)
    state = ArchState()
    executor = Executor(program, state, MemoryImage())
    retired = 0
    while not state.halted and retired < max_instructions:
        info = executor.step()
        timing.commit(info.pc_before, info.address, info.taken, info.pc_after)
        retired += 1
    return timing.now, retired, timing


class TestThroughput:
    def test_independent_ops_reach_high_ipc(self):
        def build(b):
            b.movi(9, 2000)
            b.label("loop")
            for reg in (1, 2, 3, 4, 5, 6):
                b.addi(reg, reg, 1)  # six independent chains
            b.subi(9, 9, 1)
            b.cbnz(9, "loop")
            b.halt()

        cycles, retired, _ = time_program(build)
        ipc = retired / cycles
        assert ipc > 1.8  # 3-wide commit, mostly independent

    def test_dependent_chain_is_serial(self):
        def build(b):
            b.movi(9, 2000)
            b.label("loop")
            for _ in range(6):
                b.addi(1, 1, 1)  # one serial chain
            b.subi(9, 9, 1)
            b.cbnz(9, "loop")
            b.halt()

        cycles, retired, _ = time_program(build)
        ipc = retired / cycles
        assert ipc < 1.4  # bounded by the dependency chain

    def test_division_chain_much_slower(self):
        def build_div(b):
            b.movi(1, 1000).movi(2, 3).movi(9, 500)
            b.label("loop")
            b.div(1, 1, 2)
            b.orri(1, 1, 1)
            b.subi(9, 9, 1)
            b.cbnz(9, "loop")
            b.halt()

        def build_add(b):
            b.movi(1, 1000).movi(2, 3).movi(9, 500)
            b.label("loop")
            b.add(1, 1, 2)
            b.orri(1, 1, 1)
            b.subi(9, 9, 1)
            b.cbnz(9, "loop")
            b.halt()

        div_cycles, _, _ = time_program(build_div)
        add_cycles, _, _ = time_program(build_add)
        assert div_cycles > add_cycles * 3

    def test_commit_width_floor(self):
        """Even fully independent single-cycle ops can't beat 3 IPC."""

        def build(b):
            b.movi(9, 1000)
            b.label("loop")
            for reg in range(1, 8):
                b.movi(reg, reg)
            b.subi(9, 9, 1)
            b.cbnz(9, "loop")
            b.halt()

        cycles, retired, _ = time_program(build)
        assert retired / cycles <= 3.001


class TestMemoryLatency:
    def test_cache_misses_slow_pointer_chase(self):
        def build_chase(b, stride):
            # Serial dependent loads over a large region.
            b.movi(1, 0).movi(9, 400)
            b.label("loop")
            b.ldr(2, 1, 0)  # load (value is 0)
            b.addi(1, 1, stride)
            b.andi(1, 1, (1 << 20) - 1)
            b.subi(9, 9, 1)
            b.cbnz(9, "loop")
            b.halt()

        same_line_cycles, _, _ = time_program(lambda b: build_chase(b, 0))
        far_cycles, _, _ = time_program(lambda b: build_chase(b, 8192))
        assert far_cycles > same_line_cycles * 1.5

    def test_store_latency_hidden(self):
        def build_stores(b):
            b.movi(1, 0).movi(9, 500)
            b.label("loop")
            b.str_(9, 1, 0)
            b.addi(1, 1, 8)
            b.subi(9, 9, 1)
            b.cbnz(9, "loop")
            b.halt()

        cycles, retired, _ = time_program(build_stores)
        assert retired / cycles > 1.0  # stores retire into the queue


class TestBranches:
    def test_random_branches_cost_more_than_predictable(self):
        def build(b, pattern_reg_init):
            b.movi(1, pattern_reg_init).movi(9, 2000).movi(5, 0)
            b.label("loop")
            # LCG-ish scramble; branch on parity.
            b.movi(6, 2862933555777941757)
            b.mul(1, 1, 6)
            b.addi(1, 1, 3037000493)
            b.lsri(2, 1, 62 if pattern_reg_init else 0)  # degenerate when 0
            b.andi(2, 2, 1)
            b.cbnz(2, "skip")
            b.addi(5, 5, 1)
            b.label("skip")
            b.subi(9, 9, 1)
            b.cbnz(9, "loop")
            b.halt()

        random_cycles, random_retired, random_timing = time_program(
            lambda b: build(b, 12345)
        )
        # Same code but branch always taken (lsri by 0 of even value -> parity fixed).
        steady_cycles, steady_retired, _ = time_program(lambda b: build(b, 0))
        assert random_cycles / random_retired > steady_cycles / steady_retired
        assert random_timing.predictor.stats.mispredicts > 100


class TestEngineHooks:
    def test_block_commit_advances_time(self):
        def build(b):
            b.movi(1, 1).halt()

        _, _, timing = time_program(build)
        before = timing.now
        timing.block_commit(16)
        assert timing.now == before + 16
        timing.block_commit(16)
        assert timing.now == before + 32

    def test_stall_until(self):
        def build(b):
            b.movi(1, 1).halt()

        _, _, timing = time_program(build)
        target = timing.now + 100
        stalled = timing.stall_until(target)
        assert abs(stalled - 100) < 1e-9
        assert timing.now == target
        assert timing.stall_until(target - 50) == 0  # no backwards stall

    def test_discard_inflight_preserves_now(self):
        def build(b):
            b.movi(1, 1).movi(2, 2).halt()

        _, _, timing = time_program(build)
        now = timing.now
        timing.discard_inflight()
        assert timing.now == now
