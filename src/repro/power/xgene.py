"""Per-workload undervolting points (X-Gene 3 substitute data).

Figure 13 combines the paper's simulated ParaDox slowdowns with *measured*
undervolting power data for an Arm X-Gene 3 from Papadimitriou et
al. [51], who report ~22.3% power savings from cutting the voltage margin
(nominal 0.98 V down to a per-workload minimum around 0.87 V, varying
with how hard each workload drives the critical paths).

That dataset is not redistributable, so this module carries a synthetic
per-workload table with the same structure: nominal voltage 0.98 V, and a
safe undervolted point per SPEC workload spanning 0.855-0.89 V.  The
spread follows the paper's qualitative reporting — compute-intense,
FP-heavy workloads (higher di/dt stress) tolerate slightly less
undervolt than memory-bound ones.  DESIGN.md records this substitution;
the *mean* saving is calibrated to the published 22%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: X-Gene 3 nominal supply (Papadimitriou et al.).
XGENE3_NOMINAL_VOLTAGE = 0.98
#: X-Gene 3 nominal clock used in section VI-E's overclocking analysis.
XGENE3_NOMINAL_FREQUENCY_HZ = 3.2e9


@dataclass(frozen=True)
class UndervoltPoint:
    """Safe undervolted operating voltage for one workload."""

    workload: str
    undervolt_voltage: float


#: Synthetic per-workload safe undervolt voltages (see module docstring).
#: Memory-bound workloads (mcf, lbm, GemsFDTD, bwaves) sit near the low
#: end; branchy/FP-stress workloads (povray, namd, h264ref) near the top.
XGENE3_UNDERVOLT: Dict[str, UndervoltPoint] = {
    point.workload: point
    for point in [
        UndervoltPoint("bzip2", 0.870),
        UndervoltPoint("bwaves", 0.858),
        UndervoltPoint("gcc", 0.872),
        UndervoltPoint("mcf", 0.855),
        UndervoltPoint("milc", 0.865),
        UndervoltPoint("cactusADM", 0.868),
        UndervoltPoint("leslie3d", 0.863),
        UndervoltPoint("namd", 0.885),
        UndervoltPoint("gobmk", 0.874),
        UndervoltPoint("povray", 0.889),
        UndervoltPoint("calculix", 0.872),
        UndervoltPoint("sjeng", 0.876),
        UndervoltPoint("GemsFDTD", 0.858),
        UndervoltPoint("h264ref", 0.882),
        UndervoltPoint("tonto", 0.870),
        UndervoltPoint("lbm", 0.856),
        UndervoltPoint("omnetpp", 0.866),
        UndervoltPoint("astar", 0.864),
        UndervoltPoint("xalancbmk", 0.870),
    ]
}


def undervolt_point(workload: str) -> UndervoltPoint:
    """Look up the safe undervolt voltage for a workload proxy."""
    try:
        return XGENE3_UNDERVOLT[workload]
    except KeyError:
        raise KeyError(f"no undervolt data for workload {workload!r}") from None
