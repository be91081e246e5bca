"""Compiled checker replay against per-instruction replay.

The checker replays a segment through the compiled tier's commit-only
regions wherever no fault model can fire, cutting each block before the
first instruction that may, stepping that one through the hooks and
handing the clean instructions to the models in bulk.  The contract:
every check ends exactly as per-instruction replay ends it — the same
detection (class, message, instruction index), instructions, checker
cycles, injection counts, model countdowns and RNG state — checked here
after every check of whole engine runs, with only the checker's replay
switched between the two.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import ParaDoxSystem
from repro.cores.checker_core import CheckerCore
from repro.faults.injector import FaultInjector, default_injector
from repro.faults.models import (
    BurstFaultModel,
    FunctionalUnitFaultModel,
    MemoryFaultModel,
    RegisterFaultModel,
)
from repro.faults.sram import (
    SramFaultModel,
    SramMapConfig,
    SramStructure,
    generate_chip_map,
)
from repro.isa import FunctionalUnit
from repro.isa.decode import UNIT_INDEX
from repro.oracle.fuzzer import PROFILES, build_workload, generate_case
from repro.workloads import build_bitcount, build_spec_workload

FUZZ_SEEDS = (1, 7, 23)


def _alu_injector(rate: float, seed: int) -> FaultInjector:
    """A unit model on the busiest unit, so its budget cuts most blocks."""
    rng = np.random.default_rng(seed)
    return FaultInjector(
        [
            RegisterFaultModel(rate, rng),
            FunctionalUnitFaultModel(rate, rng, FunctionalUnit.INT_ALU),
            MemoryFaultModel(rate, rng, target="store"),
        ]
    )


def _quiet_burst_injector(seed: int) -> FaultInjector:
    """A register model beside a burst model that cannot enter a burst."""
    rng = np.random.default_rng(seed)
    return FaultInjector([RegisterFaultModel(1e-2, rng), BurstFaultModel(0.0, rng)])


def _lslog_injector(seed: int) -> FaultInjector:
    """A register model beside a dense, undervolted load-store-log map,
    which fires through the replay port on every replay path."""
    chip = generate_chip_map(seed, config=SramMapConfig(weak_cell_rate=3e-3))
    return FaultInjector(
        [
            RegisterFaultModel(1e-2, np.random.default_rng(seed)),
            SramFaultModel(chip, SramStructure.LOAD_STORE_LOG, voltage=0.85),
        ]
    )


#: Injector set-ups by name: rate 0 (nothing may fire), the paper's
#: composite mix at a moderate and an error-seeking rate, injection into
#: the main core (every check replays, with no hook), a unit model on
#: the integer ALU, and a register model beside a burst model at rate 0
#: or beside an SRAM load-store-log map.
INJECTORS = {
    "rate0": lambda seed: default_injector(0.0, seed=seed),
    "rate1e-3": lambda seed: default_injector(1e-3, seed=seed),
    "rate5e-2": lambda seed: default_injector(5e-2, seed=seed),
    "main": lambda seed: default_injector(1e-3, seed=seed, target="main"),
    "alu5e-2": lambda seed: _alu_injector(5e-2, seed),
    "quiet-burst": _quiet_burst_injector,
    "lslog": _lslog_injector,
}


def _checks(workload, injector: FaultInjector, compiled: bool):
    """Run ``workload`` with checker replay compiled or not; return the
    state after every check, and the checker."""
    engine = ParaDoxSystem(resilient=True).engine(workload, injector=injector, seed=3)
    checker = engine.checker = CheckerCore(
        engine.config.checker, workload.program, jit=compiled
    )
    check_segment = checker.check_segment
    after = []

    def check(segment, hook=None):
        result = check_segment(segment, hook)
        found = result.detection
        after.append(
            (
                segment.seq,
                None
                if found is None
                else (type(found).__name__, str(found), found.instruction_index),
                result.instructions_executed,
                result.checker_cycles,
                dataclasses.astuple(injector.stats),
                [model.arrival._remaining for model in injector.models],
                [repr(model.rng.bit_generator.state) for model in injector.models],
            )
        )
        return result

    checker.check_segment = check
    engine.run(min(workload.max_instructions, 20_000))
    return after, checker


def _assert_same_checks(workload, make_injector):
    compiled, checker = _checks(workload, make_injector(5), True)
    stepped, _ = _checks(workload, make_injector(5), False)
    for index, (got, want) in enumerate(zip(compiled, stepped)):
        assert got == want, f"check {index} of {len(stepped)}"
    assert len(compiled) == len(stepped)
    return compiled, checker


class TestSameAsPerInstructionReplay:
    @pytest.mark.parametrize("injector", sorted(INJECTORS))
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_fuzz_cases(self, profile, injector):
        for seed in FUZZ_SEEDS:
            workload = build_workload(generate_case(seed, profile))
            _assert_same_checks(workload, INJECTORS[injector])

    @pytest.mark.parametrize("injector", sorted(INJECTORS))
    @pytest.mark.parametrize("name", ["bitcount", "sjeng", "gobmk"])
    def test_workloads(self, name, injector):
        if name == "bitcount":
            workload = build_bitcount(values=30)
        else:
            workload = build_spec_workload(name, iterations=2)
        checks, _ = _assert_same_checks(workload, INJECTORS[injector])
        if injector in ("rate5e-2", "main", "alu5e-2", "lslog"):
            # The error-seeking set-ups replay and detect.
            assert any(check[1] is not None for check in checks)


class TestCoverage:
    def test_bitcount_replays_compiled(self):
        workload = build_bitcount(values=60)
        checks, checker = _checks(workload, default_injector(1e-3, seed=5), True)
        replayed = sum(check[2] for check in checks)
        assert replayed > 0
        assert checker.jit.stats.instructions >= 0.9 * replayed

    @pytest.mark.parametrize("injector", ["quiet-burst", "lslog"])
    def test_contract_opens_compiled_replay(self, injector):
        """A burst model that cannot enter a burst answers ``math.inf``,
        and load-store-log faults are the replay port's: neither stops
        the register model's checks from replaying compiled."""
        workload = build_bitcount(values=60)
        checks, checker = _checks(workload, INJECTORS[injector](5), True)
        replayed = sum(check[2] for check in checks)
        assert replayed > 0
        assert checker.jit.stats.instructions >= 0.9 * replayed

    @pytest.mark.parametrize("models", [("burst",), ("stuckat",)])
    def test_unbounded_models_replay_per_instruction(self, models):
        workload = build_bitcount(values=40)
        injector = default_injector(1e-3, seed=5, models=models)
        checks, checker = _checks(workload, injector, True)
        assert sum(check[2] for check in checks) > 0
        assert checker.jit.stats.dispatches == 0


class TestReplayBudgets:
    def test_countdowns_less_the_firing_operation(self):
        injector = default_injector(1e-2, seed=9)
        register, unit, _memory = injector.models
        budgets = injector.replay_budgets()
        assert [(key, clean) for key, clean, _ in budgets] == [
            (None, register.arrival._remaining - 1),
            (UNIT_INDEX[unit.unit], unit.arrival._remaining - 1),
        ]
        # Consuming the budget leaves the next operation the firing one.
        budgets[0][2](budgets[0][1])
        assert register.arrival._remaining == 1

    def test_unknown_model_vetoes_and_other_cores_are_ignored(self):
        assert default_injector(1e-3, seed=2, models=("burst",)).replay_budgets() is None
        injector = default_injector(
            1e-3, seed=2, models=("register", "stuckat"), bound_checker=4
        )
        injector.begin_check(4)
        assert injector.replay_budgets() is None
        injector.begin_check(3)
        assert [key for key, _, _ in injector.replay_budgets()] == [None]
        # A process that never fires needs no cut.
        assert default_injector(0.0, seed=2).replay_budgets() == []
