"""Golden fingerprints of whole engine runs.

Every value below was recorded from the engine before its per-PC decode
table, flat scoreboard and integer unit counts existed.  A speed change
to the engine must leave each run's simulated numbers exactly as they
were, so any difference here is a behaviour change, not noise.

To print the fingerprints of the current tree::

    PYTHONPATH=src python tests/test_engine_golden.py
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import table1_config
from repro.core import (
    BaselineSystem,
    DetectionOnlySystem,
    ParaDoxSystem,
    ParaMedicSystem,
)
from repro.experiments.common import steady_state_dvfs_config
from repro.faults import default_injector
from repro.faults.sram import sram_injector
from repro.workloads import build_bitcount, build_spec_workload

ITERATIONS = 6
SEED = 12345
SUITE_WORKLOADS = ("bzip2", "milc", "gobmk")
SYSTEMS = ("baseline", "detection", "paramedic", "paradox")


def _suite_system(name: str):
    if name == "baseline":
        return BaselineSystem()
    if name == "detection":
        return DetectionOnlySystem()
    if name == "paramedic":
        return ParaMedicSystem()
    return ParaDoxSystem(config=steady_state_dvfs_config(), dvs=True)


def _run(case: str):
    """The RunResult of one named case."""
    if case == "resilient/sjeng":
        workload = build_spec_workload("sjeng", iterations=3)
        system = ParaDoxSystem(
            config=table1_config().with_error_rate(1e-3, seed=7), resilient=True
        )
        return system.run(workload, seed=7)
    if case == "sram/bitcount":
        workload = build_bitcount(values=10)
        config = table1_config()
        config = replace(config, dvfs=replace(config.dvfs, initial_difference=0.15))
        system = ParaDoxSystem(config=config, dvs=True, resilient=True)
        injector = sram_injector(
            1, checkers=config.checker.count, voltage=config.dvfs.safe_voltage - 0.15
        )
        return system.run(workload, seed=3, injector=injector)
    if case == "main/bitcount":
        # Faults on the main core: wild traps with checks still pending.
        workload = build_bitcount(values=30)
        system = ParaDoxSystem(
            config=table1_config().with_error_rate(3e-3, seed=1), resilient=True
        )
        injector = default_injector(3e-3, seed=1, target="main")
        return system.run(workload, seed=1, injector=injector)
    workload_name, system_name = case.split("/")
    workload = build_spec_workload(workload_name, iterations=ITERATIONS, seed=SEED)
    return _suite_system(system_name).run(workload, seed=SEED)


def fingerprint(result) -> dict:
    """The simulated numbers of one run, floats as ``repr`` strings."""
    stalls = result.stalls
    return {
        "wall_ns": repr(result.wall_ns),
        "instructions": result.instructions,
        "executed": result.instructions_executed,
        "segments": result.segments,
        "recoveries": len(result.recoveries),
        "stalls": [
            repr(stalls.checker_wait_ns),
            repr(stalls.conflict_ns),
            repr(stalls.checkpoint_ns),
            repr(stalls.rollback_ns),
            repr(stalls.drain_ns),
        ],
        "close_reasons": {
            reason.value: count for reason, count in result.close_reasons.items()
        },
        "unit_mix": dict(result.unit_mix),
        "mean_checkpoint_length": repr(result.mean_checkpoint_length),
        "wake_rates": [repr(rate) for rate in result.checker_wake_rates],
        "faults_injected": result.faults_injected,
        "outcome": result.outcome.value,
    }


CASES = [f"{w}/{s}" for w in SUITE_WORKLOADS for s in SYSTEMS] + [
    "resilient/sjeng",
    "sram/bitcount",
    "main/bitcount",
]

#: Recorded from the engine before the decode-table rewrite.
GOLDEN = {'bzip2/baseline': {'close_reasons': {},
                             'executed': 3188,
                             'faults_injected': 0,
                             'instructions': 3188,
                             'mean_checkpoint_length': '0.0',
                             'outcome': 'completed',
                             'recoveries': 0,
                             'segments': 0,
                             'stalls': ['0.0', '0.0', '0.0', '0.0', '0.0'],
                             'unit_mix': {'branch': 240,
                                          'fp_alu': 7,
                                          'int_alu': 2464,
                                          'int_mul': 114,
                                          'load': 264,
                                          'store': 97,
                                          'system': 2},
                             'wake_rates': [],
                             'wall_ns': '5863.124999999982'},
          'bzip2/detection': {'close_reasons': {'halt': 1, 'target': 3},
                              'executed': 3188,
                              'faults_injected': 0,
                              'instructions': 3188,
                              'mean_checkpoint_length': '797.0',
                              'outcome': 'completed',
                              'recoveries': 0,
                              'segments': 4,
                              'stalls': ['0.0', '0.0', '20.0', '0.0', '0.0'],
                              'unit_mix': {'branch': 240,
                                           'fp_alu': 7,
                                           'int_alu': 2464,
                                           'int_mul': 114,
                                           'load': 264,
                                           'store': 97,
                                           'system': 2},
                              'wake_rates': ['0.0', '0.0', '0.0', '0.0', '0.0', '0.0',
                                             '0.0', '0.0', '0.0', '0.0', '0.0',
                                             '0.19109712548173843',
                                             '0.19024855920517664',
                                             '0.025580737545521065', '0.0', '0.0'],
                              'wall_ns': '5892.291666666655'},
          'bzip2/paradox': {'close_reasons': {'halt': 1, 'target': 3},
                            'executed': 3188,
                            'faults_injected': 0,
                            'instructions': 3188,
                            'mean_checkpoint_length': '797.0',
                            'outcome': 'completed',
                            'recoveries': 0,
                            'segments': 4,
                            'stalls': ['0.0', '0.0', '20.0', '0.0', '0.0'],
                            'unit_mix': {'branch': 240,
                                         'fp_alu': 7,
                                         'int_alu': 2464,
                                         'int_mul': 114,
                                         'load': 264,
                                         'store': 97,
                                         'system': 2},
                            'wake_rates': ['0.0', '0.0', '0.0', '0.0', '0.0', '0.0',
                                           '0.0', '0.0', '0.0', '0.0', '0.0',
                                           '0.2166778630272595', '0.19024855920517664',
                                           '0.0', '0.0', '0.0'],
                            'wall_ns': '5892.291666666655'},
          'bzip2/paramedic': {'close_reasons': {'halt': 1, 'target': 3},
                              'executed': 3188,
                              'faults_injected': 0,
                              'instructions': 3188,
                              'mean_checkpoint_length': '797.0',
                              'outcome': 'completed',
                              'recoveries': 0,
                              'segments': 4,
                              'stalls': ['0.0', '0.0', '20.0', '0.0', '0.0'],
                              'unit_mix': {'branch': 240,
                                           'fp_alu': 7,
                                           'int_alu': 2464,
                                           'int_mul': 114,
                                           'load': 264,
                                           'store': 97,
                                           'system': 2},
                              'wake_rates': ['0.0', '0.0', '0.0', '0.0', '0.0', '0.0',
                                             '0.0', '0.0', '0.0', '0.0', '0.0',
                                             '0.19109712548173843',
                                             '0.19024855920517664',
                                             '0.025580737545521065', '0.0', '0.0'],
                              'wall_ns': '5892.291666666655'},
          'gobmk/baseline': {'close_reasons': {},
                             'executed': 19112,
                             'faults_injected': 0,
                             'instructions': 19112,
                             'mean_checkpoint_length': '0.0',
                             'outcome': 'completed',
                             'recoveries': 0,
                             'segments': 0,
                             'stalls': ['0.0', '0.0', '0.0', '0.0', '0.0'],
                             'unit_mix': {'branch': 1704,
                                          'fp_alu': 7,
                                          'int_alu': 14350,
                                          'int_div': 18,
                                          'int_mul': 1218,
                                          'load': 1242,
                                          'store': 571,
                                          'system': 2},
                             'wake_rates': [],
                             'wall_ns': '38204.583333332106'},
          'gobmk/detection': {'close_reasons': {'halt': 1, 'target': 17},
                              'executed': 19112,
                              'faults_injected': 0,
                              'instructions': 19112,
                              'mean_checkpoint_length': '1061.7777777777778',
                              'outcome': 'completed',
                              'recoveries': 0,
                              'segments': 18,
                              'stalls': ['0.0', '0.0', '90.0', '0.0', '0.0'],
                              'unit_mix': {'branch': 1704,
                                           'fp_alu': 7,
                                           'int_alu': 14350,
                                           'int_div': 18,
                                           'int_mul': 1218,
                                           'load': 1242,
                                           'store': 571,
                                           'system': 2},
                              'wake_rates': ['0.03576059361870985',
                                             '0.035837283713665895',
                                             '0.03606949186464615',
                                             '0.03700153126773588',
                                             '0.036844944278655374',
                                             '0.03723267048566003',
                                             '0.03800919183272536',
                                             '0.03769708678762064',
                                             '0.03792929493860081',
                                             '0.03932788850976345',
                                             '0.03878250638062228',
                                             '0.05967521941797472',
                                             '0.0342874478187036',
                                             '0.035063969165768975',
                                             '0.034674105092652105',
                                             '0.03521734935568097'],
                              'wall_ns': '38580.72916666528'},
          'gobmk/paradox': {'close_reasons': {'eviction': 10, 'halt': 1, 'target': 96},
                            'executed': 19112,
                            'faults_injected': 0,
                            'instructions': 19112,
                            'mean_checkpoint_length': '178.61682242990653',
                            'outcome': 'completed',
                            'recoveries': 0,
                            'segments': 107,
                            'stalls': ['0.0', '0.0', '535.0', '0.0', '0.0'],
                            'unit_mix': {'branch': 1704,
                                         'fp_alu': 7,
                                         'int_alu': 14350,
                                         'int_div': 18,
                                         'int_mul': 1218,
                                         'load': 1242,
                                         'store': 571,
                                         'system': 2},
                            'wake_rates': ['0.0', '0.0', '0.0', '0.0', '0.0', '0.0',
                                           '0.0', '0.0', '0.0', '0.0', '0.0',
                                           '0.41762967531022055', '0.18927238363396798',
                                           '0.009917179271784309',
                                           '0.0005456106188670055', '0.0'],
                            'wall_ns': '40170.62499999737'},
          'gobmk/paramedic': {'close_reasons': {'eviction': 9, 'halt': 1, 'target': 14},
                              'executed': 19112,
                              'faults_injected': 0,
                              'instructions': 19112,
                              'mean_checkpoint_length': '796.3333333333334',
                              'outcome': 'completed',
                              'recoveries': 0,
                              'segments': 24,
                              'stalls': ['0.0', '0.0', '120.0', '0.0', '0.0'],
                              'unit_mix': {'branch': 1704,
                                           'fp_alu': 7,
                                           'int_alu': 14350,
                                           'int_div': 18,
                                           'int_mul': 1218,
                                           'load': 1242,
                                           'store': 571,
                                           'system': 2},
                              'wake_rates': ['0.04485327260183108',
                                             '0.02289849024671529',
                                             '0.0365572088363985',
                                             '0.03647855840286971',
                                             '0.03647749187714528',
                                             '0.03779535178409676',
                                             '0.02360685794919144',
                                             '0.01274346046639517',
                                             '0.03820593304854735',
                                             '0.007407235239477651',
                                             '0.03817793869449702',
                                             '0.07365537197597957',
                                             '0.07429977148956782',
                                             '0.048459297279144296',
                                             '0.05466310225855177',
                                             '0.020291333081594407'],
                              'wall_ns': '38667.81249999862'},
          'main/bitcount': {'close_reasons': {'halt': 2, 'target': 437},
                            'executed': 68943,
                            'faults_injected': 223,
                            'instructions': 15509,
                            'mean_checkpoint_length': '146.90205011389523',
                            'outcome': 'completed',
                            'recoveries': 55,
                            'segments': 439,
                            'stalls': ['678.9583333310641', '0.0', '2195.0',
                                       '780.0000000000009', '1.8189894035458565e-12'],
                            'unit_mix': {'branch': 17370,
                                         'int_alu': 51189,
                                         'int_mul': 126,
                                         'load': 120,
                                         'store': 134,
                                         'system': 4},
                            'wake_rates': ['0.12202195354752873',
                                           '0.15098154629335084',
                                           '0.13829144129811902', '0.2105727012408751',
                                           '0.16586382437171493',
                                           '0.12342825326128602',
                                           '0.0779525930639433', '0.2609465478842306',
                                           '0.2112010817690445', '0.25738148265991473',
                                           '0.26614540248171653', '0.3498250079541609',
                                           '0.2194543429843717', '0.18558383709826717',
                                           '0.19618199172759054',
                                           '0.09041202672603339'],
                            'wall_ns': '13095.83333333174'},
          'milc/baseline': {'close_reasons': {},
                            'executed': 2493,
                            'faults_injected': 0,
                            'instructions': 2493,
                            'mean_checkpoint_length': '0.0',
                            'outcome': 'completed',
                            'recoveries': 0,
                            'segments': 0,
                            'stalls': ['0.0', '0.0', '0.0', '0.0', '0.0'],
                            'unit_mix': {'branch': 102,
                                         'fp_alu': 289,
                                         'fp_mul': 174,
                                         'int_alu': 1511,
                                         'int_mul': 66,
                                         'load': 210,
                                         'store': 139,
                                         'system': 2},
                            'wake_rates': [],
                            'wall_ns': '3801.2500000000546'},
          'milc/detection': {'close_reasons': {'halt': 1, 'target': 2},
                             'executed': 2493,
                             'faults_injected': 0,
                             'instructions': 2493,
                             'mean_checkpoint_length': '831.0',
                             'outcome': 'completed',
                             'recoveries': 0,
                             'segments': 3,
                             'stalls': ['0.0', '0.0', '15.0', '0.0', '0.0'],
                             'unit_mix': {'branch': 102,
                                          'fp_alu': 289,
                                          'fp_mul': 174,
                                          'int_alu': 1511,
                                          'int_mul': 66,
                                          'load': 210,
                                          'store': 139,
                                          'system': 2},
                             'wake_rates': ['0.0', '0.0', '0.0', '0.0', '0.0', '0.0',
                                            '0.0', '0.0', '0.0', '0.0', '0.0',
                                            '0.3211306765523762', '0.07692307692308183',
                                            '0.0', '0.0', '0.0'],
                             'wall_ns': '3821.4583333333935'},
          'milc/paradox': {'close_reasons': {'halt': 1, 'target': 2},
                           'executed': 2493,
                           'faults_injected': 0,
                           'instructions': 2493,
                           'mean_checkpoint_length': '831.0',
                           'outcome': 'completed',
                           'recoveries': 0,
                           'segments': 3,
                           'stalls': ['0.0', '0.0', '15.0', '0.0', '0.0'],
                           'unit_mix': {'branch': 102,
                                        'fp_alu': 289,
                                        'fp_mul': 174,
                                        'int_alu': 1511,
                                        'int_mul': 66,
                                        'load': 210,
                                        'store': 139,
                                        'system': 2},
                           'wake_rates': ['0.0', '0.0', '0.0', '0.0', '0.0', '0.0',
                                          '0.0', '0.0', '0.0', '0.0', '0.0',
                                          '0.3211306765523762', '0.07692307692308183',
                                          '0.0', '0.0', '0.0'],
                           'wall_ns': '3821.4583333333935'},
          'milc/paramedic': {'close_reasons': {'halt': 1, 'target': 2},
                             'executed': 2493,
                             'faults_injected': 0,
                             'instructions': 2493,
                             'mean_checkpoint_length': '831.0',
                             'outcome': 'completed',
                             'recoveries': 0,
                             'segments': 3,
                             'stalls': ['0.0', '0.0', '15.0', '0.0', '0.0'],
                             'unit_mix': {'branch': 102,
                                          'fp_alu': 289,
                                          'fp_mul': 174,
                                          'int_alu': 1511,
                                          'int_mul': 66,
                                          'load': 210,
                                          'store': 139,
                                          'system': 2},
                             'wake_rates': ['0.0', '0.0', '0.0', '0.0', '0.0', '0.0',
                                            '0.0', '0.0', '0.0', '0.0', '0.0',
                                            '0.3211306765523762', '0.07692307692308183',
                                            '0.0', '0.0', '0.0'],
                             'wall_ns': '3821.4583333333935'},
          'resilient/sjeng': {'close_reasons': {'eviction': 4, 'halt': 1, 'target': 45},
                              'executed': 8398,
                              'faults_injected': 9,
                              'instructions': 5725,
                              'mean_checkpoint_length': '154.1',
                              'outcome': 'completed',
                              'recoveries': 5,
                              'segments': 50,
                              'stalls': ['0.0', '0.0', '250.0', '212.5', '0.0'],
                              'unit_mix': {'branch': 629,
                                           'fp_alu': 14,
                                           'int_alu': 6344,
                                           'int_div': 28,
                                           'int_mul': 562,
                                           'load': 530,
                                           'store': 289,
                                           'system': 2},
                              'wake_rates': ['0.13057310662488686',
                                             '0.03216383281108207', '0.0', '0.0', '0.0',
                                             '0.0', '0.0', '0.0', '0.0', '0.0', '0.0',
                                             '0.0', '0.0', '0.0', '0.0',
                                             '0.3740986170328146'],
                              'wall_ns': '18250.31249999996'},
          'sram/bitcount': {'close_reasons': {'halt': 2, 'target': 37},
                            'executed': 11963,
                            'faults_injected': 5,
                            'instructions': 5154,
                            'mean_checkpoint_length': '288.46153846153845',
                            'outcome': 'completed',
                            'recoveries': 5,
                            'segments': 39,
                            'stalls': ['0.0', '0.0', '200.89956749553005',
                                       '88.9317324392207', '151.83369535276915'],
                            'unit_mix': {'branch': 2999,
                                         'int_alu': 8880,
                                         'int_mul': 25,
                                         'load': 24,
                                         'store': 31,
                                         'system': 4},
                            'wake_rates': ['0.38134586214864413', '0.22317767479762673',
                                           '0.11088065778124757', '0.09056312558985133',
                                           '0.07420370748203221', '0.06163127677960591',
                                           '0.0', '0.0', '0.0', '0.0', '0.0', '0.0',
                                           '0.6678527182451361', '0.6342358249481694',
                                           '0.599846699407236', '0.3557270575495703'],
                            'wall_ns': '2463.581857888942'}}


@pytest.mark.parametrize("case", CASES)
def test_run_matches_recorded_fingerprint(case):
    assert fingerprint(_run(case)) == GOLDEN[case]


def test_recorded_cases_exercise_recovery():
    """The pinned set covers rollbacks, the SRAM map, main-core traps and
    DVS moves."""
    assert GOLDEN["resilient/sjeng"]["recoveries"] > 0
    assert GOLDEN["sram/bitcount"]["faults_injected"] > 0
    assert GOLDEN["main/bitcount"]["recoveries"] > 0
    assert all(GOLDEN[f"{w}/paradox"]["segments"] > 0 for w in SUITE_WORKLOADS)


if __name__ == "__main__":
    import pprint

    pprint.pprint(
        {case: fingerprint(_run(case)) for case in CASES}, width=88, compact=True
    )
