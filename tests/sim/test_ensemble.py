"""Tests for ensemble chunking: boundaries, routing, and resume.

The engine-level bit-identity claims live in
``test_engine_equivalence.py``; this module pins the *plumbing* around
the trial-stacked engine -- how the runner folds tasks into chunks, how
chunk boundaries fall when the replica count does not divide evenly,
how a trial dying in its very first epoch coexists with long-lived
chunk-mates, and how a checkpoint resume re-chunks the remaining work.
"""

import numpy as np
import pytest

import repro.sim.runner as runner_module
from repro.attacks.uaa import UniformAddressAttack
from repro.core.maxwe import MaxWE
from repro.endurance.emap import EnduranceMap
from repro.sim.config import ExperimentConfig
from repro.sim.ensemble import EnsembleMember, simulate_ensemble
from repro.sim.lifetime import simulate_lifetime
from repro.obs.metrics import MetricsRegistry
from repro.sim.montecarlo import monte_carlo_lifetime
from repro.sim.runner import SimRunner, SimTask, fork_task_seeds
from repro.sparing.none import NoSparing

SMALL = ExperimentConfig(regions=128, lines_per_region=2, seed=7)


def mc(engine, replicas=7, **kwargs):
    return monte_carlo_lifetime(
        UniformAddressAttack,
        lambda: MaxWE(0.1, 0.9),
        config=SMALL,
        replicas=replicas,
        engine=engine,
        **kwargs,
    )


@pytest.fixture
def max_chunk(monkeypatch):
    """Set the runner's chunk-size cap.  At ``jobs=1`` a run of ``n``
    ensemble tasks chunks into ``min(n, cap)``-member chunks."""
    return lambda size: monkeypatch.setattr(runner_module, "MAX_AUTO_CHUNK", size)


class TestMonteCarloRouting:
    """The ensemble engine through the Monte-Carlo driver must reproduce
    the per-task ``fluid-batched`` study exactly, however trials chunk."""

    def test_non_divisible_replica_count(self, max_chunk):
        baseline = mc("fluid-batched", replicas=7)
        max_chunk(3)
        ensemble = mc("fluid-ensemble", replicas=7)
        np.testing.assert_array_equal(ensemble.lifetimes, baseline.lifetimes)

    def test_single_trial_chunks_degenerate_to_batched(self, max_chunk):
        baseline = mc("fluid-batched", replicas=5)
        max_chunk(1)
        ensemble = mc("fluid-ensemble", replicas=5)
        np.testing.assert_array_equal(ensemble.lifetimes, baseline.lifetimes)

    def test_auto_sized_chunks(self):
        baseline = mc("fluid-batched", replicas=6)
        ensemble = mc("fluid-ensemble", replicas=6)
        np.testing.assert_array_equal(ensemble.lifetimes, baseline.lifetimes)

    def test_chunk_size_does_not_leak_into_results(self, max_chunk):
        studies = []
        for size in (1, 2, 4, 6):
            max_chunk(size)
            metrics = MetricsRegistry()
            studies.append(mc("fluid-ensemble", replicas=6, metrics=metrics))
            # The cap took effect: 6 members fold into ceil(6 / size) chunks.
            assert metrics.counter("sim.ensembles") == -(-6 // size)
        for study in studies[1:]:
            np.testing.assert_array_equal(study.lifetimes, studies[0].lifetimes)

    def test_oversized_chunk_is_harmless(self, max_chunk):
        baseline = mc("fluid-batched", replicas=3)
        max_chunk(64)
        ensemble = mc("fluid-ensemble", replicas=3)
        np.testing.assert_array_equal(ensemble.lifetimes, baseline.lifetimes)


class TestEarlyDeath:
    """A trial that fails in epoch 0 must stop contributing work without
    perturbing the chunk-mates that keep running."""

    def test_epoch_zero_failure_amid_survivors(self):
        # NoSparing fails the device at its very first death; Max-WE on
        # the same map runs for thousands of epochs.  Stack them.
        doomed_map = EnduranceMap(np.full(64, 50.0), regions=32)
        healthy_map = EnduranceMap(np.linspace(100.0, 2000.0, 64), regions=32)
        members = [
            EnsembleMember(
                emap=doomed_map,
                attack=UniformAddressAttack(),
                sparing=NoSparing(),
                rng=1,
            ),
            EnsembleMember(
                emap=healthy_map,
                attack=UniformAddressAttack(),
                sparing=MaxWE(0.1, 0.9),
                rng=2,
            ),
            EnsembleMember(
                emap=doomed_map,
                attack=UniformAddressAttack(),
                sparing=NoSparing(),
                rng=3,
            ),
        ]
        stacked = simulate_ensemble(members)
        assert stacked[0].metadata["epochs"] == 1
        assert stacked[2].metadata["epochs"] == 1
        assert stacked[1].metadata["epochs"] > 1
        solo_configs = [
            (doomed_map, NoSparing(), 1),
            (healthy_map, MaxWE(0.1, 0.9), 2),
            (doomed_map, NoSparing(), 3),
        ]
        for (emap, sparing, seed), result in zip(solo_configs, stacked):
            solo = simulate_lifetime(
                emap,
                UniformAddressAttack(),
                sparing,
                rng=seed,
                engine="fluid-batched",
                record_timeline=False,
            )
            assert result.writes_served == solo.writes_served
            assert result.deaths == solo.deaths
            assert result.failure_reason == solo.failure_reason


class TestRunnerChunking:
    """SimRunner-level behaviour: grouping, validation, per-task parity."""

    @staticmethod
    def tasks(engine, count=6):
        seeds = fork_task_seeds(SMALL.seed, count, "ensemble-test")
        return [
            SimTask(config=SMALL, engine=engine, seed=seed, label=f"t{index}")
            for index, seed in enumerate(seeds)
        ]

    def test_invalid_trials_per_task_rejected(self):
        # The chunk size is the runner's own: it is no longer an option.
        with pytest.raises(TypeError, match="trials_per_task"):
            SimRunner(trials_per_task=4)

    def test_ensemble_tasks_match_per_task_dispatch(self, max_chunk):
        baseline = SimRunner().run(self.tasks("fluid-batched"))
        max_chunk(4)
        chunked = SimRunner().run(self.tasks("fluid-ensemble"))
        for solo, ens in zip(baseline, chunked):
            assert ens.normalized_lifetime == solo.normalized_lifetime
            assert ens.writes_served == solo.writes_served
            assert ens.deaths == solo.deaths
            assert ens.replacements == solo.replacements

    def test_mixed_engines_chunk_only_the_ensemble_run(self):
        """Non-ensemble tasks interleaved with ensemble tasks break the
        run into separate chunks without disturbing any result."""
        ens = self.tasks("fluid-ensemble", count=5)
        solo = self.tasks("fluid-batched", count=5)
        mixed = [ens[0], ens[1], solo[2], ens[3], ens[4]]
        expected = SimRunner().run([solo[0], solo[1], solo[2], solo[3], solo[4]])
        got = SimRunner().run(mixed)
        for want, have in zip(expected, got):
            assert have.normalized_lifetime == want.normalized_lifetime

    def test_stats_count_members_not_chunks(self, max_chunk):
        max_chunk(3)
        _, stats = SimRunner().run_detailed(
            self.tasks("fluid-ensemble", count=7)
        )
        assert stats.tasks == 7
        assert stats.simulated == 7  # chunking is invisible in the stats
        assert all(second > 0.0 for second in stats.task_seconds)


class TestCheckpointResume:
    """An interrupted ensemble study resumes from the journal and
    re-chunks only the remaining members."""

    def test_resume_mid_ensemble(self, tmp_path, max_chunk):
        path = tmp_path / "resume.jsonl"
        tasks = TestRunnerChunking.tasks("fluid-ensemble", count=8)
        # First pass covers an uneven prefix: one full chunk of 4 plus a
        # lone straggler, so the resume boundary falls mid-chunk.
        max_chunk(4)
        SimRunner(checkpoint=path).run(tasks[:5])
        resumed, stats = SimRunner(checkpoint=path).run_detailed(tasks)
        assert stats.checkpoint_hits == 5
        assert stats.simulated == 3  # only the tail re-chunked and ran
        baseline = SimRunner().run(TestRunnerChunking.tasks("fluid-batched", count=8))
        for solo, ens in zip(baseline, resumed):
            assert ens.normalized_lifetime == solo.normalized_lifetime
            assert ens.writes_served == solo.writes_served

    def test_checkpointed_ensemble_results_hit_the_cache(self, tmp_path, max_chunk):
        """Chunk completion fans out to per-member cache entries, exactly
        like per-task dispatch would have written them."""
        from repro.sim.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        tasks = TestRunnerChunking.tasks("fluid-ensemble", count=6)
        max_chunk(3)
        _, cold = SimRunner(cache=cache).run_detailed(tasks)
        assert cold.simulated == 6
        _, warm = SimRunner(cache=cache).run_detailed(tasks)
        assert warm.cache_hits == 6
        assert warm.simulated == 0
