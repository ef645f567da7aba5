"""The paper's evaluation experiments as reusable sweep drivers.

Each function reproduces one figure/table of Section 5:

* :func:`spare_fraction_sweep` -- Figure 6: Max-WE lifetime under UAA
  versus the spare-capacity percentage;
* :func:`swr_fraction_sweep` -- Figure 7: lifetime under BPA versus the
  SWR share of the spare space, per wear-leveling scheme;
* :func:`bpa_scheme_comparison` -- Figure 8: Max-WE vs PCD/PS vs PS-worst
  under BPA across wear-leveling schemes (plus the geometric mean);
* :func:`uaa_scheme_comparison` -- Section 5.3.1's UAA numbers:
  no-protection, Max-WE, PCD/PS, PS-worst at 10% spares.

All drivers return plain data structures (lists/dicts of
:class:`~repro.sim.result.SimulationResult`) so benchmarks, examples and
tests can format them however they need.

Every driver expresses its runs as declarative
:class:`~repro.sim.runner.SimTask` specs and forwards its ``**run``
keywords to :func:`~repro.sim.runner.run_tasks`, whose docstring lists
the execution options (parallelism, caching, supervision, checkpoints,
metrics, engine, verification).  Results do not depend on them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.maxwe import MaxWE
from repro.sim.config import ExperimentConfig
from repro.sim.result import SimulationResult
from repro.sim.runner import SimTask, run_tasks
from repro.sparing.base import SpareScheme
from repro.sparing.pcd import PCD
from repro.sparing.ps import PS

#: Figure 6's x-axis: spare capacity as a percentage of total capacity.
FIG6_SPARE_FRACTIONS: Tuple[float, ...] = (0.0, 0.01, 0.1, 0.2, 0.3, 0.4, 0.5)

#: Figure 7's x-axis: SWR capacity as a percentage of the spare capacity.
FIG7_SWR_FRACTIONS: Tuple[float, ...] = (0.0, 0.2, 0.6, 0.8, 0.9, 1.0)

#: Figure 7/8's wear-leveling baselines, in paper order.
EVALUATED_WEAR_LEVELERS: Tuple[str, ...] = ("tlsr", "pcm-s", "bwl", "wawl")

#: Sparing-scheme factories for the comparison figures, in paper order.
SPARING_FACTORIES: Dict[str, Callable[[float, float], SpareScheme]] = {
    "ps-worst": lambda p, q: PS.worst_case(p),
    "pcd-ps": lambda p, q: PCD(p),
    "max-we": lambda p, q: MaxWE(p, q),
}

#: Figure-vocabulary sparing names -> runner/batch vocabulary.
_TASK_SPARING_NAMES: Dict[str, str] = {
    "no-protection": "none",
    "ps-worst": "ps-worst",
    "pcd-ps": "pcd",
    "max-we": "max-we",
}


def spare_fraction_sweep(
    config: ExperimentConfig | None = None,
    fractions: Sequence[float] = FIG6_SPARE_FRACTIONS,
    **run,
) -> List[Tuple[float, SimulationResult]]:
    """Figure 6: Max-WE under UAA across spare-capacity percentages.

    The paper notes lifetime under UAA is independent of the wear-leveling
    scheme (uniform traffic is permutation-invariant), so no wear-leveler
    is varied here.  A zero fraction degenerates to the unprotected device.
    """
    config = config if config is not None else ExperimentConfig()
    tasks = [
        SimTask(
            attack="uaa",
            sparing="none" if fraction == 0.0 else "max-we",
            p=fraction,
            swr=config.swr_fraction,
            config=config,
            label=f"spare={fraction:.0%}",
        )
        for fraction in fractions
    ]
    results = run_tasks(tasks, **run)
    return list(zip(fractions, results))


def swr_fraction_sweep(
    config: ExperimentConfig | None = None,
    swr_fractions: Sequence[float] = FIG7_SWR_FRACTIONS,
    wearlevelers: Sequence[str] = EVALUATED_WEAR_LEVELERS,
    **run,
) -> Dict[str, List[Tuple[float, SimulationResult]]]:
    """Figure 7: Max-WE under BPA across SWR shares, per wear-leveler."""
    config = config if config is not None else ExperimentConfig()
    tasks = [
        SimTask(
            attack="bpa",
            sparing="max-we",
            wearlevel=wl_name,
            p=config.spare_fraction,
            swr=swr_fraction,
            config=config,
            label=f"{wl_name}/swr={swr_fraction:.0%}",
        )
        for wl_name in wearlevelers
        for swr_fraction in swr_fractions
    ]
    results = iter(run_tasks(tasks, **run))
    return {
        wl_name: [(swr_fraction, next(results)) for swr_fraction in swr_fractions]
        for wl_name in wearlevelers
    }


def bpa_scheme_comparison(
    config: ExperimentConfig | None = None,
    wearlevelers: Sequence[str] = EVALUATED_WEAR_LEVELERS,
    sparing_names: Sequence[str] = ("ps-worst", "pcd-ps", "max-we"),
    **run,
) -> Dict[str, Dict[str, SimulationResult]]:
    """Figure 8: sparing schemes under BPA across wear-levelers.

    Returns ``{sparing_name: {wl_name: result}}``; apply
    :func:`repro.util.stats.geometric_mean` over each inner dict's
    normalized lifetimes for the paper's Gmean bars.
    """
    config = config if config is not None else ExperimentConfig()
    tasks = [
        SimTask(
            attack="bpa",
            sparing=_TASK_SPARING_NAMES[sparing_name],
            wearlevel=wl_name,
            p=config.spare_fraction,
            swr=config.swr_fraction,
            config=config,
            label=f"{sparing_name}/{wl_name}",
        )
        for sparing_name in sparing_names
        for wl_name in wearlevelers
    ]
    results = iter(run_tasks(tasks, **run))
    return {
        sparing_name: {wl_name: next(results) for wl_name in wearlevelers}
        for sparing_name in sparing_names
    }


def uaa_scheme_comparison(
    config: ExperimentConfig | None = None,
    **run,
) -> Dict[str, SimulationResult]:
    """Section 5.3.1: UAA lifetimes at 10% spares for all sparing schemes.

    Returns results for ``no-protection``, ``ps-worst``, ``pcd-ps`` and
    ``max-we``; the paper reports 4.1%, 28.5%, 30.6% and 43.1% of the
    ideal lifetime respectively (9.5X / 7.4X / 6.9X improvements).
    """
    config = config if config is not None else ExperimentConfig()
    names = ("no-protection", "ps-worst", "pcd-ps", "max-we")
    tasks = [
        SimTask(
            attack="uaa",
            sparing=_TASK_SPARING_NAMES[name],
            p=config.spare_fraction,
            swr=config.swr_fraction,
            config=config,
            label=name,
        )
        for name in names
    ]
    results = run_tasks(tasks, **run)
    return dict(zip(names, results))
