"""repro: reproduction of "An Efficient Spare-Line Replacement Scheme to
Enhance NVM Security" (Xu et al., DAC 2019).

The library implements the paper's Uniform Address Attack (UAA) threat
model and its Max-WE spare-line replacement defence, together with every
substrate the evaluation depends on: the Zhang-Li endurance-variation
model, an NVM bank simulator, the baseline wear-leveling schemes (TLSR,
PCM-S, BWL, WAWL, Start-Gap, Toss-up), the baseline sparing schemes
(PCD, PS), the closed-form lifetime analysis, and a lifetime simulator
with a fluid engine and exact oracles.

Quickstart::

    from repro import (
        ExperimentConfig, MaxWE, NoSparing, UniformAddressAttack,
        simulate_lifetime,
    )

    emap = ExperimentConfig().make_emap()
    unprotected = simulate_lifetime(emap, UniformAddressAttack(), NoSparing())
    protected = simulate_lifetime(emap, UniformAddressAttack(), MaxWE(0.1))
    print(f"UAA kills an unprotected bank at "
          f"{unprotected.normalized_lifetime:.1%} of ideal lifetime;")
    print(f"Max-WE raises that to {protected.normalized_lifetime:.1%} "
          f"({protected.improvement_over(unprotected):.1f}X better).")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every figure and table.
"""

from repro.attacks import (
    BirthdayParadoxAttack,
    HotColdWorkload,
    RepeatedAddressAttack,
    UniformAddressAttack,
    ZipfWorkload,
)
from repro.core import (
    MappingOverheadReport,
    MaxWE,
    MaxWEController,
    mapping_overhead_report,
    plan_allocation,
)
from repro.device import DeviceGeometry, DeviceWornOutError, NVMBank
from repro.endurance import (
    EnduranceMap,
    LinearEnduranceModel,
    PowerLawEnduranceModel,
    ZhangLiModel,
    linear_endurance_map,
    zhang_li_endurance_map,
)
from repro.sim import (
    ExperimentConfig,
    LifetimeSimulator,
    ReferenceSimulator,
    SimulationResult,
    default_endurance_map,
    simulate_lifetime,
)
from repro.sparing import PCD, PS, NoSparing
from repro.salvage import ECP, FreeP, PayAsYouGo
from repro.trace import TraceAttack, WriteTrace, record_trace
from repro.detect import AttackClassifier, WriteRateMonitor
from repro.sim.montecarlo import MonteCarloResult, monte_carlo_lifetime
from repro.wearlevel import BWL, PCMS, TLSR, WAWL, NoWearLeveling, StartGap, make_scheme

__version__ = "1.0.0"

__all__ = [
    "BirthdayParadoxAttack",
    "HotColdWorkload",
    "RepeatedAddressAttack",
    "UniformAddressAttack",
    "ZipfWorkload",
    "MappingOverheadReport",
    "MaxWE",
    "MaxWEController",
    "mapping_overhead_report",
    "plan_allocation",
    "DeviceGeometry",
    "DeviceWornOutError",
    "NVMBank",
    "EnduranceMap",
    "LinearEnduranceModel",
    "PowerLawEnduranceModel",
    "ZhangLiModel",
    "linear_endurance_map",
    "zhang_li_endurance_map",
    "ExperimentConfig",
    "LifetimeSimulator",
    "ReferenceSimulator",
    "SimulationResult",
    "default_endurance_map",
    "simulate_lifetime",
    "PCD",
    "PS",
    "NoSparing",
    "ECP",
    "FreeP",
    "PayAsYouGo",
    "TraceAttack",
    "WriteTrace",
    "record_trace",
    "AttackClassifier",
    "WriteRateMonitor",
    "MonteCarloResult",
    "monte_carlo_lifetime",
    "BWL",
    "PCMS",
    "TLSR",
    "WAWL",
    "NoWearLeveling",
    "StartGap",
    "make_scheme",
    "__version__",
]
