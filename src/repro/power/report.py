"""Energy reporting: the figure 13 row calculator.

For one workload, combine:

* the undervolted main-core power (V^2 f at the workload's safe
  undervolt point, figure 13's "Power" bars),
* the checker-pool power under aggressive gating (from the simulated
  wake rates of figure 12),
* the simulated ParaDox slowdown against an unprotected baseline,

into the three normalised ratios the figure reports: power, slowdown and
energy-delay product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..stats import RunResult
from .model import (
    OperatingPoint,
    checker_pool_power,
    energy_delay_product,
    main_core_power,
)
from .xgene import (
    XGENE3_NOMINAL_FREQUENCY_HZ,
    XGENE3_NOMINAL_VOLTAGE,
    undervolt_point,
)


@dataclass(frozen=True)
class EnergyRow:
    """One workload's row of figure 13 (all relative to baseline = 1.0)."""

    workload: str
    power: float
    slowdown: float
    edp: float
    main_power: float
    checker_power: float
    undervolt_voltage: float


def energy_row(
    workload: str,
    paradox: RunResult,
    baseline: RunResult,
    undervolt_voltage: Optional[float] = None,
    frequency_hz: float = XGENE3_NOMINAL_FREQUENCY_HZ,
) -> EnergyRow:
    """Compute one figure 13 row.

    ``undervolt_voltage`` defaults to the workload's entry in the
    X-Gene 3 substitute table; pass an explicit value to study other
    operating points.  The analysis holds frequency fixed, like the
    figure ("the analysis assumes a fixed clock frequency").
    """
    if undervolt_voltage is None:
        undervolt_voltage = undervolt_point(workload).undervolt_voltage
    nominal = OperatingPoint(XGENE3_NOMINAL_VOLTAGE, frequency_hz)
    undervolted = OperatingPoint(undervolt_voltage, frequency_hz)

    main_power = main_core_power(undervolted, nominal)
    checker_power = checker_pool_power(paradox.checker_wake_rates, gated=True)
    power = main_power + checker_power
    slowdown = paradox.slowdown_vs(baseline)
    return EnergyRow(
        workload=workload,
        power=power,
        slowdown=slowdown,
        edp=energy_delay_product(power, slowdown),
        main_power=main_power,
        checker_power=checker_power,
        undervolt_voltage=undervolt_voltage,
    )


@dataclass(frozen=True)
class EnergySummary:
    """Suite-level aggregates quoted in the paper's abstract."""

    mean_power: float
    mean_slowdown: float
    mean_edp: float

    @property
    def power_reduction_percent(self) -> float:
        return (1.0 - self.mean_power) * 100.0

    @property
    def edp_reduction_percent(self) -> float:
        return (1.0 - self.mean_edp) * 100.0

    @property
    def slowdown_percent(self) -> float:
        return (self.mean_slowdown - 1.0) * 100.0


def summarise(rows: Sequence[EnergyRow]) -> EnergySummary:
    """Geometric-mean aggregates over the suite (the figure's gmean bar)."""
    if not rows:
        raise ValueError("no rows to summarise")

    def gmean(values: Sequence[float]) -> float:
        product = 1.0
        for value in values:
            product *= value
        return product ** (1.0 / len(values))

    return EnergySummary(
        mean_power=gmean([r.power for r in rows]),
        mean_slowdown=gmean([r.slowdown for r in rows]),
        mean_edp=gmean([r.edp for r in rows]),
    )
