"""Local sensitivity analysis of the lifetime to the design parameters.

Which knob matters most around an operating point?  For each parameter
``θ`` of the evaluation configuration, :func:`sensitivity_analysis`
perturbs it by a relative step and reports the lifetime **elasticity**

```
E_θ = (ΔL / L) / (Δθ / θ)
```

-- the percent change in normalized lifetime per percent change in the
parameter.  At the paper's operating point (p = 10%, q_swr = 90%,
q = 50) this quantifies Section 5.2's qualitative reasoning: lifetime is
strongly elastic in the spare fraction, weakly (and negatively) in the
variation degree, and nearly inelastic in the SWR share -- which is why
the paper can trade the SWR share for mapping-table savings so cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sim.config import ExperimentConfig
from repro.sim.runner import SimTask, run_tasks
from repro.util.validation import require_fraction

#: Parameters the analysis can perturb.
PARAMETERS = ("spare_fraction", "swr_fraction", "q")


@dataclass(frozen=True)
class Sensitivity:
    """Elasticity of the lifetime with respect to one parameter.

    Attributes
    ----------
    parameter:
        The perturbed configuration field.
    base_value / base_lifetime:
        The operating point.
    perturbed_value / perturbed_lifetime:
        The evaluated neighbour.
    elasticity:
        Relative lifetime change per relative parameter change.
    """

    parameter: str
    base_value: float
    base_lifetime: float
    perturbed_value: float
    perturbed_lifetime: float

    @property
    def elasticity(self) -> float:
        relative_dl = (self.perturbed_lifetime - self.base_lifetime) / self.base_lifetime
        relative_dtheta = (self.perturbed_value - self.base_value) / self.base_value
        return relative_dl / relative_dtheta


def _task(config: ExperimentConfig, label: str) -> SimTask:
    """Max-WE-under-UAA evaluation of ``config`` as a declarative task.

    Equivalent to the historical direct ``simulate_lifetime`` call (same
    emap, attack, scheme, and seed), but routable through
    :func:`~repro.sim.runner.run_tasks` for fan-out, caching, and
    supervision.
    """
    return SimTask(
        attack="uaa",
        sparing="max-we",
        p=config.spare_fraction,
        swr=config.swr_fraction,
        config=config,
        label=label,
    )


def sensitivity_analysis(
    config: ExperimentConfig | None = None,
    *,
    relative_step: float = 0.1,
    parameters: Tuple[str, ...] = PARAMETERS,
    **run,
) -> Dict[str, Sensitivity]:
    """Elasticities of Max-WE's UAA lifetime around a configuration.

    The base point and every perturbed neighbour are expressed as
    declarative tasks and executed through one
    :func:`~repro.sim.runner.run_tasks` call, with results identical to
    the historical serial loop.

    Parameters
    ----------
    config:
        Operating point; defaults to the paper's.
    relative_step:
        Relative perturbation applied to each parameter (+10% default).
    parameters:
        Subset of :data:`PARAMETERS` to analyze.
    **run:
        Execution options, forwarded to :func:`~repro.sim.runner.run_tasks`.
    """
    require_fraction(relative_step, "relative_step", inclusive=False)
    config = config if config is not None else ExperimentConfig()
    unknown = set(parameters) - set(PARAMETERS)
    if unknown:
        raise ValueError(f"unknown parameters {sorted(unknown)}; choose from {PARAMETERS}")

    perturbations: List[Tuple[str, float, float]] = []
    for parameter in parameters:
        base_value = float(getattr(config, parameter))
        perturbed_value = base_value * (1.0 + relative_step)
        if parameter in ("spare_fraction", "swr_fraction"):
            perturbed_value = min(perturbed_value, 1.0 if parameter == "swr_fraction" else 0.99)
        perturbations.append((parameter, base_value, perturbed_value))

    tasks = [_task(config, "base")] + [
        _task(
            config.with_(**{parameter: perturbed_value}),
            f"{parameter}+{relative_step:.0%}",
        )
        for parameter, _, perturbed_value in perturbations
    ]
    results = run_tasks(tasks, **run)
    base_lifetime = results[0].normalized_lifetime

    report: Dict[str, Sensitivity] = {}
    for (parameter, base_value, perturbed_value), result in zip(
        perturbations, results[1:]
    ):
        report[parameter] = Sensitivity(
            parameter=parameter,
            base_value=base_value,
            base_lifetime=base_lifetime,
            perturbed_value=perturbed_value,
            perturbed_lifetime=result.normalized_lifetime,
        )
    return report
