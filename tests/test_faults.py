"""Fault models, arrival process, injector fast path, voltage model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    MIN_RATE,
    FaultInjector,
    FunctionalUnitFaultModel,
    GeometricArrival,
    MemoryFaultModel,
    RegisterFaultModel,
    VoltageErrorModel,
    default_injector,
)
from repro.isa import ArchState, FunctionalUnit, Instruction, Opcode
from repro.isa.decode import UNIT_INDEX
from repro.isa.executor import StepInfo
from repro.isa.registers import RegisterCategory
from repro.lslog import LogSegment, RollbackGranularity
from repro.isa.state import ArchState as State


def step_info(opcode=Opcode.ADD, dest=("x", 3), unit_override=None):
    instr = Instruction(opcode, rd=3, rs1=1, rs2=2)
    return StepInfo(instr, 0, 1, dest, None, None)


class TestGeometricArrival:
    def test_zero_rate_never_fires(self):
        arrival = GeometricArrival(0.0, np.random.default_rng(1))
        assert not any(arrival.step() for _ in range(10_000))
        assert arrival.advance(10**9) is None

    def test_rate_one_fires_every_time(self):
        arrival = GeometricArrival(1.0, np.random.default_rng(1))
        assert all(arrival.step() for _ in range(100))

    def test_rate_one_advance_offset_is_one(self):
        arrival = GeometricArrival(1.0, np.random.default_rng(1))
        for _ in range(10):
            assert arrival.advance(1000) == 1
        assert not arrival.clamped and arrival.clamp_events == 0

    def test_sub_min_rate_is_an_explicit_clamp(self):
        """Rates in (0, MIN_RATE) never fire — and say so."""
        arrival = GeometricArrival(MIN_RATE / 10, np.random.default_rng(2))
        assert arrival.clamped
        assert arrival.clamp_events == 1  # the construction-time resample
        assert not arrival.fires_within(10**12)
        assert arrival.advance(10**12) is None
        assert not any(arrival.step() for _ in range(1000))
        # Stepping a clamped process never resamples (no fire, no clamp).
        assert arrival.clamp_events == 1

    def test_zero_rate_is_not_a_clamp(self):
        arrival = GeometricArrival(0.0, np.random.default_rng(3))
        assert not arrival.clamped
        assert arrival.clamp_events == 0

    def test_set_rate_into_clamp_region_counts(self):
        arrival = GeometricArrival(0.5, np.random.default_rng(4))
        assert not arrival.clamped
        arrival.set_rate(MIN_RATE / 2)
        assert arrival.clamped and arrival.clamp_events == 1
        arrival.set_rate(0.5)
        assert not arrival.clamped
        assert arrival.fires_within(10**6)

    def test_mean_gap_close_to_inverse_rate(self):
        arrival = GeometricArrival(0.01, np.random.default_rng(2))
        fires = sum(arrival.step() for _ in range(200_000))
        assert fires == pytest.approx(2000, rel=0.15)

    def test_advance_offset_within_count(self):
        arrival = GeometricArrival(0.05, np.random.default_rng(3))
        offset = arrival.advance(10**6)
        assert offset is not None and 1 <= offset <= 10**6

    def test_advance_no_fire_consumes(self):
        arrival = GeometricArrival(0.5, np.random.default_rng(4))
        remaining_before = arrival._remaining
        if remaining_before > 1:
            assert arrival.advance(remaining_before - 1) is None
            assert arrival._remaining == 1

    def test_fires_within_is_pure(self):
        arrival = GeometricArrival(0.1, np.random.default_rng(5))
        snapshot = arrival._remaining
        arrival.fires_within(1000)
        assert arrival._remaining == snapshot

    def test_invalid_rate_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            GeometricArrival(-0.1, rng)
        with pytest.raises(ValueError):
            GeometricArrival(1.5, rng)

    def test_set_rate_resamples(self):
        arrival = GeometricArrival(1e-6, np.random.default_rng(6))
        arrival.set_rate(1.0)
        assert arrival.step()

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.001, max_value=0.5), st.integers(0, 2**32 - 1))
    def test_advance_equivalent_to_stepping(self, rate, seed):
        """Bulk advance must fire at exactly the same offsets as stepping."""
        a = GeometricArrival(rate, np.random.default_rng(seed))
        b = GeometricArrival(rate, np.random.default_rng(seed))
        window = 500
        step_fires = [i for i in range(window) if a.step()]
        bulk_fires = []
        consumed = 0
        while consumed < window:
            offset = b.advance(window - consumed)
            if offset is None:
                break
            consumed += offset
            bulk_fires.append(consumed - 1)  # 0-based position
        assert bulk_fires == step_fires


class TestRegisterFaultModel:
    def test_fires_and_flips_state(self):
        rng = np.random.default_rng(7)
        model = RegisterFaultModel(1.0, rng, category=RegisterCategory.INT)
        state = ArchState()
        fired = model.on_instruction(state, step_info())
        assert fired
        assert any(state.regs.x) or True  # flip may hit x0; firing is the point

    def test_category_pinned(self):
        rng = np.random.default_rng(8)
        model = RegisterFaultModel(1.0, rng, category=RegisterCategory.FLAGS)
        state = ArchState()
        model.on_instruction(state, step_info())
        assert state.regs.flags != 0

    def test_zero_rate_never_fires(self):
        model = RegisterFaultModel(0.0, np.random.default_rng(9))
        state = ArchState()
        assert not any(
            model.on_instruction(state, step_info()) for _ in range(1000)
        )


class TestFunctionalUnitFaultModel:
    def test_only_counts_matching_unit(self):
        rng = np.random.default_rng(10)
        model = FunctionalUnitFaultModel(1.0, rng, FunctionalUnit.INT_MUL)
        state = ArchState()
        add_info = step_info(Opcode.ADD)
        assert not model.on_instruction(state, add_info)
        mul_instr = Instruction(Opcode.MUL, rd=3, rs1=1, rs2=2)
        mul_info = StepInfo(mul_instr, 0, 1, ("x", 3), None, None)
        assert model.on_instruction(state, mul_info)

    def test_no_dest_no_injection(self):
        rng = np.random.default_rng(11)
        model = FunctionalUnitFaultModel(1.0, rng, FunctionalUnit.STORE)
        state = ArchState()
        store_instr = Instruction(Opcode.STR, rs1=1, rs2=2)
        info = StepInfo(store_instr, 0, 1, None, 0, None)
        assert not model.on_instruction(state, info)

    def test_corrupts_written_register(self):
        rng = np.random.default_rng(12)
        model = FunctionalUnitFaultModel(1.0, rng, FunctionalUnit.INT_ALU)
        state = ArchState()
        state.regs.write_x(3, 100)
        model.on_instruction(state, step_info())
        assert state.regs.read_x(3) != 100


class TestMemoryFaultModel:
    def test_load_target_flips_loads_only(self):
        rng = np.random.default_rng(13)
        model = MemoryFaultModel(1.0, rng, target="load")
        value, fired = model.on_load(0)
        assert fired and value != 0
        value, fired = model.on_store(0)
        assert not fired and value == 0

    def test_store_target(self):
        rng = np.random.default_rng(14)
        model = MemoryFaultModel(1.0, rng, target="store")
        value, fired = model.on_store(5)
        assert fired and value != 5

    def test_single_bit_flip(self):
        rng = np.random.default_rng(15)
        model = MemoryFaultModel(1.0, rng, target="load")
        value, _ = model.on_load(0)
        assert bin(value).count("1") == 1

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            MemoryFaultModel(0.5, np.random.default_rng(0), target="banana")


class TestInjectorFastPath:
    def make_segment(self, instructions=100, loads=10, stores=5):
        segment = LogSegment(
            seq=1,
            granularity=RollbackGranularity.LINE,
            capacity_bytes=1 << 20,
            start_state=State(),
        )
        for _ in range(instructions):
            segment.record_instruction(UNIT_INDEX[FunctionalUnit.INT_ALU], writes_register=True)
        for i in range(loads):
            segment.record_load(i * 8, 0)
        for i in range(stores):
            segment.record_store(i * 8, 1, 0)
        return segment

    def test_zero_rate_never_fires_within(self):
        injector = default_injector(0.0)
        assert not injector.fires_within_segment(self.make_segment())

    def test_rate_one_always_fires(self):
        injector = default_injector(1.0)
        assert injector.fires_within_segment(self.make_segment())

    def test_skip_consumes_domains(self):
        injector = default_injector(1e-3, seed=1)
        segment = self.make_segment(instructions=10, loads=1, stores=1)
        register_model = injector.models[0]
        before = register_model.arrival._remaining
        if not injector.fires_within_segment(segment):
            injector.skip_segment(segment)
            assert register_model.arrival._remaining == before - 10

    def test_skip_after_fire_check_raises(self):
        injector = default_injector(1.0, seed=1)
        segment = self.make_segment()
        with pytest.raises(RuntimeError):
            injector.skip_segment(segment)

    def test_set_rate_propagates(self):
        injector = default_injector(1e-6)
        injector.set_rate(0.5)
        assert all(model.rate == 0.5 for model in injector.models)
        assert injector.enabled

    def test_clamped_rate_surfaces_in_telemetry(self):
        from repro.telemetry import Tracer

        injector = default_injector(1e-3)
        injector.tracer = Tracer()
        injector.set_rate(1e-16)  # inside (0, MIN_RATE): clamped
        clamped = injector.tracer.metrics.counters.get("faults.rate_clamped")
        assert clamped == len(injector.models)
        assert all(model.arrival.clamped for model in injector.models)
        # Restoring a sane rate stops the counting.
        injector.set_rate(1e-3)
        assert (
            injector.tracer.metrics.counters["faults.rate_clamped"] == clamped
        )

    def test_target_validation(self):
        with pytest.raises(ValueError):
            FaultInjector([], target="gpu")


class TestVoltageModel:
    def test_rate_increases_as_voltage_drops(self):
        model = VoltageErrorModel.itanium_9560()
        assert model.rate(1.0) > model.rate(1.05) > model.rate(1.1)

    def test_nominal_rate_negligible(self):
        model = VoltageErrorModel.itanium_9560()
        assert model.rate(1.1) < 1e-20

    def test_rate_clamped(self):
        model = VoltageErrorModel.itanium_9560()
        assert model.rate(0.1) == model.max_rate

    def test_inverse(self):
        model = VoltageErrorModel.itanium_9560()
        for rate in (1e-9, 1e-6, 1e-4):
            voltage = model.voltage_for_rate(rate)
            assert model.rate(voltage) == pytest.approx(rate)

    def test_first_error_voltage_ordering(self):
        model = VoltageErrorModel.itanium_9560()
        # Longer runs see their first error at a higher voltage.
        assert model.first_error_voltage(1e9) > model.first_error_voltage(1e6)

    def test_invalid_rate_rejected(self):
        model = VoltageErrorModel.itanium_9560()
        with pytest.raises(ValueError):
            model.voltage_for_rate(0.0)

    def test_cliff_below_margin(self):
        """The error cliff must sit inside the measured Arm margin width
        (roughly 10-13% below nominal)."""
        model = VoltageErrorModel.itanium_9560()
        cliff = model.voltage_for_rate(1e-6)
        assert 0.85 * model.nominal_voltage < cliff < 0.95 * model.nominal_voltage
