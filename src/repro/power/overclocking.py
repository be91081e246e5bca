"""Section VI-E's overclocking trade-off analysis.

ParaDox's slowdown can be traded against its power savings by moving
along the ``f proportional to V - V_th`` line:

* **Restore performance**: raise the clock by the slowdown fraction and
  the voltage by just enough to sustain it.  The paper: "a 4.5% clock
  frequency increase to mitigate the slowdown could be achieved with
  around 0.019 V (at a base of .872 V and threshold .45 V), increasing
  power consumption by 9% relative to the slower case, but reducing it by
  15% relative to the voltage-margined baseline".
* **Restore power / boost performance**: spend the entire power saving on
  frequency: "we could increase voltage by 0.06 V from the undervolted
  3.2 GHz value, increasing clock frequency by 13% to around 3.6 GHz".
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import OperatingPoint, frequency_for_voltage, main_core_power
from .xgene import XGENE3_NOMINAL_FREQUENCY_HZ, XGENE3_NOMINAL_VOLTAGE

#: Operating point of the undervolted-but-not-overclocked ParaDox system
#: used as the section's base case.
PARADOX_BASE_VOLTAGE = 0.872
THRESHOLD_VOLTAGE = 0.45


@dataclass(frozen=True)
class OverclockScenario:
    """One point in the voltage/frequency trade-off space."""

    name: str
    voltage: float
    frequency_hz: float
    #: Power relative to the undervolted 3.2 GHz ParaDox point.
    power_vs_undervolted: float
    #: Power relative to the margined baseline.
    power_vs_margined: float
    #: Performance relative to the margined baseline (1.0 = parity).
    performance: float

    @property
    def frequency_increase_percent(self) -> float:
        return (self.frequency_hz / XGENE3_NOMINAL_FREQUENCY_HZ - 1.0) * 100.0

    @property
    def voltage_increase(self) -> float:
        return self.voltage - PARADOX_BASE_VOLTAGE


def restore_performance(slowdown: float = 1.045) -> OverclockScenario:
    """Overclock just enough to cancel ParaDox's slowdown."""
    base = OperatingPoint(PARADOX_BASE_VOLTAGE, XGENE3_NOMINAL_FREQUENCY_HZ)
    margined = OperatingPoint(XGENE3_NOMINAL_VOLTAGE, XGENE3_NOMINAL_FREQUENCY_HZ)
    target_frequency = XGENE3_NOMINAL_FREQUENCY_HZ * slowdown
    # f proportional to V - V_th: scale the headroom by the same factor.
    voltage = THRESHOLD_VOLTAGE + (PARADOX_BASE_VOLTAGE - THRESHOLD_VOLTAGE) * slowdown
    point = OperatingPoint(voltage, target_frequency)
    return OverclockScenario(
        name="restore-performance",
        voltage=voltage,
        frequency_hz=target_frequency,
        power_vs_undervolted=main_core_power(point, base),
        power_vs_margined=main_core_power(point, margined),
        performance=1.0,
    )


def boost_performance(voltage_increase: float = 0.06, slowdown: float = 1.045) -> OverclockScenario:
    """Spend the remaining margin on frequency above nominal."""
    margined = OperatingPoint(XGENE3_NOMINAL_VOLTAGE, XGENE3_NOMINAL_FREQUENCY_HZ)
    base = OperatingPoint(PARADOX_BASE_VOLTAGE, XGENE3_NOMINAL_FREQUENCY_HZ)
    voltage = PARADOX_BASE_VOLTAGE + voltage_increase
    frequency = frequency_for_voltage(
        voltage,
        PARADOX_BASE_VOLTAGE,
        XGENE3_NOMINAL_FREQUENCY_HZ,
        THRESHOLD_VOLTAGE,
    )
    point = OperatingPoint(voltage, frequency)
    performance = (frequency / XGENE3_NOMINAL_FREQUENCY_HZ) / slowdown
    return OverclockScenario(
        name="boost-performance",
        voltage=voltage,
        frequency_hz=frequency,
        power_vs_undervolted=main_core_power(point, base),
        power_vs_margined=main_core_power(point, margined),
        performance=performance,
    )


def paramedic_edp_ratio(
    paramedic_slowdown: float = 1.08, paradox_edp: float = 0.85
) -> float:
    """ParaMedic's EDP relative to ParaDox's (the paper reports 1.27x).

    ParaMedic does not undervolt, so its power is the margined baseline's
    plus the (ungated) checker pool; its EDP is ``(1 + checker) * s^2``.
    """
    from .model import CHECKER_POOL_FULL_POWER

    paramedic_power = 1.0 + CHECKER_POOL_FULL_POWER
    paramedic_edp = paramedic_power * paramedic_slowdown * paramedic_slowdown
    return paramedic_edp / paradox_edp
