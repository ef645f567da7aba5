"""Tests for Monte-Carlo studies on per-task dispatch.

The engine-level bit-identity claims live in
``test_engine_equivalence.py``; this module pins the *plumbing* around a
study of many runs: every replica is one supervised task whatever the
engine name, a run failing in its very first epoch coexists with
long-lived neighbours, and a checkpoint resume re-runs only the
remaining replicas.
"""

import functools

import numpy as np
import pytest

from repro.attacks.uaa import UniformAddressAttack
from repro.core.maxwe import MaxWE
from repro.endurance.emap import EnduranceMap
from repro.obs.metrics import MetricsRegistry
from repro.sim.config import ExperimentConfig
from repro.sim.lifetime import simulate_lifetime
from repro.sim.montecarlo import monte_carlo_lifetime
from repro.sim.runner import (
    CallableTask,
    SimRunner,
    SimTask,
    build_attack,
    build_sparing,
    build_wearleveler,
    fork_task_seeds,
)
from repro.sparing.none import NoSparing

SMALL = ExperimentConfig(regions=128, lines_per_region=2, seed=7)


def tasks(engine, count=6):
    seeds = fork_task_seeds(SMALL.seed, count, "ensemble-test")
    return [
        SimTask(config=SMALL, engine=engine, seed=seed, label=f"t{index}")
        for index, seed in enumerate(seeds)
    ]


def fixed_map(emap, seed):
    """An emap factory that ignores the replica seed."""
    return emap


def records(results):
    """Serialized results without the engine label."""
    out = []
    for result in results:
        record = result.to_dict()
        del record["metadata"]["engine"]
        out.append(record)
    return out


class TestMonteCarloEngines:
    """``fluid-ensemble`` is a result label: a study on it runs exactly
    the per-task ``fluid-batched`` study, one simulation per replica."""

    @pytest.mark.parametrize(
        "attack, wearlevel", (("uaa", "none"), ("bpa", "tlsr"))
    )
    def test_ensemble_label_runs_the_batched_study(self, attack, wearlevel):
        config = ExperimentConfig(regions=256, lines_per_region=2, seed=3)
        factories = (
            functools.partial(build_attack, attack),
            functools.partial(
                build_sparing, "max-we", config.spare_fraction, config.swr_fraction
            ),
        )
        wearleveler = (
            functools.partial(build_wearleveler, wearlevel)
            if wearlevel != "none"
            else None
        )
        studies, registries = {}, {}
        for engine in ("fluid-batched", "fluid-ensemble"):
            registries[engine] = MetricsRegistry()
            studies[engine] = monte_carlo_lifetime(
                *factories,
                wearleveler_factory=wearleveler,
                config=config,
                replicas=5,
                engine=engine,
                metrics=registries[engine],
            )
        for engine, study in studies.items():
            assert {r.metadata["engine"] for r in study.results} == {engine}
            metrics = registries[engine]
            assert metrics.counter("sim.runs") == 5
            assert metrics.counter("runner.simulated") == 5
        assert records(studies["fluid-ensemble"].results) == records(
            studies["fluid-batched"].results
        )


class TestEarlyDeath:
    """A run that fails in epoch 0 must not perturb the runs around it."""

    def test_epoch_zero_failure_amid_survivors(self):
        # NoSparing fails the device at its very first death; Max-WE on
        # the same map runs for thousands of epochs.  Interleave them.
        doomed_map = EnduranceMap(np.full(64, 50.0), regions=32)
        healthy_map = EnduranceMap(np.linspace(100.0, 2000.0, 64), regions=32)
        grid = [
            (doomed_map, NoSparing, 1),
            (healthy_map, functools.partial(MaxWE, 0.1, 0.9), 2),
            (doomed_map, NoSparing, 3),
        ]
        study = [
            CallableTask(
                attack_factory=UniformAddressAttack,
                sparing_factory=sparing,
                emap_factory=functools.partial(fixed_map, emap),
                seed=seed,
                engine="fluid-ensemble",
            )
            for emap, sparing, seed in grid
        ]
        results, stats = SimRunner().run_detailed(study)
        assert stats.simulated == 3
        assert results[0].metadata["epochs"] == 1
        assert results[2].metadata["epochs"] == 1
        assert results[1].metadata["epochs"] > 1
        for (emap, sparing, seed), result in zip(grid, results):
            solo = simulate_lifetime(
                emap,
                UniformAddressAttack(),
                sparing(),
                rng=seed,
                engine="fluid-batched",
                record_timeline=False,
            )
            assert records([result]) == records([solo])


class TestRunnerChunking:
    """SimRunner-level behaviour: validation, per-task parity, stats."""

    def test_invalid_trials_per_task_rejected(self):
        # Every task is one run: there is no chunk size to set.
        with pytest.raises(TypeError, match="trials_per_task"):
            SimRunner(trials_per_task=4)

    def test_ensemble_tasks_match_per_task_dispatch(self):
        baseline = SimRunner().run(tasks("fluid-batched"))
        labelled = SimRunner().run(tasks("fluid-ensemble"))
        assert records(labelled) == records(baseline)

    def test_stats_count_every_task(self):
        metrics = MetricsRegistry()
        _, stats = SimRunner(metrics=metrics).run_detailed(
            tasks("fluid-ensemble", count=7)
        )
        assert stats.tasks == 7
        assert stats.simulated == 7
        assert metrics.counter("sim.runs") == 7
        assert all(second > 0.0 for second in stats.task_seconds)


class TestCheckpointResume:
    """An interrupted study resumes from the journal and re-runs only
    the remaining replicas."""

    def test_resume_mid_ensemble(self, tmp_path):
        path = tmp_path / "resume.jsonl"
        study = tasks("fluid-ensemble", count=8)
        SimRunner(checkpoint=path).run(study[:5])
        resumed, stats = SimRunner(checkpoint=path).run_detailed(study)
        assert stats.checkpoint_hits == 5
        assert stats.simulated == 3  # only the tail ran
        baseline = SimRunner().run(tasks("fluid-batched", count=8))
        assert records(resumed) == records(baseline)

    def test_checkpointed_ensemble_results_hit_the_cache(self, tmp_path):
        """A journaled study heals a cache that lost its entries: each
        replica's checkpoint record is written back as its cache entry."""
        from repro.sim.cache import ResultCache

        study = tasks("fluid-ensemble", count=6)
        path = tmp_path / "journal.jsonl"
        _, cold = SimRunner(checkpoint=path).run_detailed(study)
        assert cold.simulated == 6
        cache = ResultCache(tmp_path / "cache")
        _, healed = SimRunner(cache=cache, checkpoint=path).run_detailed(study)
        assert healed.checkpoint_hits == 6
        assert healed.simulated == 0
        _, warm = SimRunner(cache=cache).run_detailed(study)
        assert warm.cache_hits == 6
        assert warm.simulated == 0
