"""Monte-Carlo lifetime studies: many seeds, confidence intervals.

A single lifetime simulation carries sampling variance from three
sources: endurance-map placement, randomized wear-leveling, and random
spare selection.  The paper reports single numbers; a reproduction should
also report how tight they are.  :func:`monte_carlo_lifetime` runs one
configuration across independently seeded replicas and summarizes the
normalized lifetime with a mean, standard deviation and a normal-theory
confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.attacks.base import AttackModel
from repro.endurance.emap import EnduranceMap
from repro.sim.config import ExperimentConfig
from repro.sim.result import SimulationResult
from repro.sim.runner import CallableTask, run_tasks
from repro.sparing.base import SpareScheme
from repro.util.rng import fork_seeds
from repro.util.validation import require_positive_int
from repro.wearlevel.base import WearLeveler

#: Two-sided z-scores for the confidence levels we support.
_Z_SCORES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


@dataclass(frozen=True)
class MonteCarloResult:
    """Summary of a multi-seed lifetime study.

    Attributes
    ----------
    lifetimes:
        Per-replica normalized lifetimes, in seed order.
    confidence:
        Confidence level of :attr:`ci_low` / :attr:`ci_high`.
    results:
        The underlying per-replica results (metadata, death counts, ...).
    """

    lifetimes: np.ndarray
    confidence: float
    results: Sequence[SimulationResult]

    @property
    def replicas(self) -> int:
        """Number of replicas run."""
        return int(self.lifetimes.size)

    @property
    def mean(self) -> float:
        """Mean normalized lifetime."""
        return float(self.lifetimes.mean())

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1; 0 for a single replica)."""
        if self.replicas < 2:
            return 0.0
        return float(self.lifetimes.std(ddof=1))

    @property
    def standard_error(self) -> float:
        """Standard error of the mean."""
        return self.std / math.sqrt(self.replicas)

    @property
    def ci_half_width(self) -> float:
        """Half-width of the normal-theory confidence interval."""
        return _Z_SCORES[self.confidence] * self.standard_error

    @property
    def ci_low(self) -> float:
        """Lower confidence bound on the mean."""
        return self.mean - self.ci_half_width

    @property
    def ci_high(self) -> float:
        """Upper confidence bound on the mean."""
        return self.mean + self.ci_half_width

    def __str__(self) -> str:
        return (
            f"{self.mean:.4f} ± {self.ci_half_width:.4f} "
            f"({self.confidence:.0%} CI, n={self.replicas})"
        )


#: Replica seeds are folded into the 31-bit config-seed space below;
#: :func:`monte_carlo_lifetime` forks them pairwise distinct modulo this
#: so no two replicas can silently share an endurance map.
EMAP_SEED_MOD: int = 2**31


@dataclass(frozen=True)
class _ConfigEmapFactory:
    """Default per-replica endurance-map builder (picklable, unlike the
    equivalent closure, so replicas can fan out over worker processes)."""

    config: ExperimentConfig

    def __call__(self, seed: int) -> EnduranceMap:
        return self.config.with_(seed=seed % EMAP_SEED_MOD).make_emap()


def monte_carlo_lifetime(
    attack_factory: Callable[[], AttackModel],
    sparing_factory: Callable[[], SpareScheme],
    *,
    config: Optional[ExperimentConfig] = None,
    emap_factory: Optional[Callable[[int], EnduranceMap]] = None,
    wearleveler_factory: Optional[Callable[[], WearLeveler]] = None,
    replicas: int = 10,
    confidence: float = 0.95,
    **run,
) -> MonteCarloResult:
    """Run ``replicas`` independently seeded lifetime simulations.

    Factories (rather than instances) are required because schemes carry
    per-run mutable state; each replica gets fresh instances and a seed
    forked from ``config.seed``.

    Parameters
    ----------
    attack_factory / sparing_factory / wearleveler_factory:
        Zero-argument constructors for the run's components.
    config:
        Base configuration (device shape, master seed).
    emap_factory:
        Optional per-replica endurance-map builder ``seed -> EnduranceMap``;
        defaults to the config's map rebuilt with the replica seed, so
        placement variance is part of the study.
    replicas:
        Number of independent runs.
    confidence:
        One of 0.90, 0.95, 0.99.
    **run:
        Execution options, forwarded to :func:`~repro.sim.runner.run_tasks`.
        Replica seeds are forked up front, so results are identical in any
        job count; unpicklable factories (lambdas, closures) silently fall
        back to serial execution.  Every replica is one supervised task
        on the epoch kernel whatever the ``engine``: ``"fluid-ensemble"``
        gives results equal to ``"fluid-batched"`` apart from their
        ``metadata["engine"]`` label.
    """
    require_positive_int(replicas, "replicas")
    if confidence not in _Z_SCORES:
        raise ValueError(
            f"confidence must be one of {sorted(_Z_SCORES)}, got {confidence}"
        )
    config = config if config is not None else ExperimentConfig()

    if emap_factory is None:
        emap_factory = _ConfigEmapFactory(config)

    # Replica seeds are 63-bit but the default emap factory folds them
    # into the 31-bit config-seed space; two seeds colliding after the
    # fold would silently simulate the same placement twice, so the fork
    # guarantees pairwise distinctness modulo the fold.
    seeds = fork_seeds(
        config.seed, replicas, "monte-carlo", distinct_mod=EMAP_SEED_MOD
    )
    tasks = [
        CallableTask(
            attack_factory=attack_factory,
            sparing_factory=sparing_factory,
            emap_factory=emap_factory,
            seed=seed,
            wearleveler_factory=wearleveler_factory,
            label=f"replica-{index}",
        )
        for index, seed in enumerate(seeds)
    ]
    results = run_tasks(tasks, **run)
    lifetimes = np.array([result.normalized_lifetime for result in results])
    return MonteCarloResult(
        lifetimes=lifetimes, confidence=confidence, results=tuple(results)
    )
