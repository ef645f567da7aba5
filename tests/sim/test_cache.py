"""Tests for the content-addressed result cache."""

import json

import pytest

from repro.sim.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    canonical_json,
    task_key,
)
from repro.sim.config import ExperimentConfig
from repro.sim.experiments import spare_fraction_sweep, uaa_scheme_comparison
from repro.sim.runner import SimRunner, SimTask

SMALL = ExperimentConfig(regions=128, lines_per_region=2, seed=7)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestKeying:
    def test_key_is_stable(self):
        task = SimTask(config=SMALL)
        assert task_key(task) == task_key(SimTask(config=SMALL))

    def test_key_changes_with_any_relevant_field(self):
        base = SimTask(config=SMALL)
        variants = [
            SimTask(config=SMALL, seed=8),
            SimTask(config=SMALL, p=0.2),
            SimTask(config=SMALL, swr=0.5),
            SimTask(config=SMALL, sparing="pcd"),
            SimTask(config=SMALL, attack="bpa"),
            SimTask(config=SMALL, wearlevel="tlsr"),
            SimTask(config=SMALL, emap_seed=99),
            SimTask(config=SMALL.with_(q=10.0)),
            SimTask(config=SMALL.with_(regions=64)),
        ]
        keys = {task_key(task) for task in variants}
        assert task_key(base) not in keys
        assert len(keys) == len(variants)

    def test_key_ignores_label(self):
        assert task_key(SimTask(config=SMALL, label="a")) == task_key(
            SimTask(config=SMALL, label="b")
        )

    def test_key_changes_with_schema_version(self):
        task = SimTask(config=SMALL)
        assert task_key(task, CACHE_SCHEMA_VERSION) != task_key(
            task, CACHE_SCHEMA_VERSION + 1
        )

    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


class TestHitMiss:
    def test_cold_miss_then_warm_hit(self, cache):
        task = SimTask(config=SMALL)
        assert cache.get(task) is None
        result, elapsed = task.execute()
        cache.put(task, result, elapsed)
        cached = cache.get(task)
        assert cached is not None
        assert cached.normalized_lifetime == result.normalized_lifetime
        assert cached.writes_served == result.writes_served
        assert cached.deaths == result.deaths
        assert cached.replacements == result.replacements
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == 0.5

    def test_timeline_not_cached(self, cache):
        task = SimTask(config=SMALL, record_timeline=True)
        result, _ = task.execute()
        assert result.timeline  # the live run records one
        cache.put(task, result)
        assert cache.get(task).timeline == ()

    def test_len_counts_entries(self, cache):
        assert len(cache) == 0
        result, _ = SimTask(config=SMALL).execute()
        cache.put(SimTask(config=SMALL), result)
        cache.put(SimTask(config=SMALL, seed=9), result)
        assert len(cache) == 2

    def test_clear_removes_everything(self, cache):
        task = SimTask(config=SMALL)
        result, _ = task.execute()
        cache.put(task, result)
        assert cache.clear() == 1
        assert cache.get(task) is None

    def test_corrupt_entry_is_a_miss_and_removed(self, cache):
        task = SimTask(config=SMALL)
        result, _ = task.execute()
        path = cache.put(task, result)
        path.write_text("{not json")
        assert cache.get(task) is None
        assert not path.exists()

    def test_corrupt_entry_is_quarantined_not_deleted(self, cache):
        task = SimTask(config=SMALL)
        result, _ = task.execute()
        path = cache.put(task, result)
        path.write_text("{torn mid-write")
        assert cache.get(task) is None
        assert cache.stats.quarantined == 1
        moved = cache.quarantine_root / path.name
        assert moved.read_text() == "{torn mid-write"  # bytes kept for debugging

    def test_quarantined_entries_are_invisible_to_len_and_clear(self, cache):
        task = SimTask(config=SMALL)
        result, _ = task.execute()
        path = cache.put(task, result)
        path.write_text("garbage")
        cache.get(task)
        assert len(cache) == 0
        assert cache.clear() == 0
        assert (cache.quarantine_root / path.name).exists()

    def test_rewrite_after_quarantine_hits_again(self, cache):
        task = SimTask(config=SMALL)
        result, _ = task.execute()
        path = cache.put(task, result)
        path.write_text("garbage")
        assert cache.get(task) is None
        cache.put(task, result)
        restored = cache.get(task)
        assert restored is not None

    def test_quarantine_is_bounded_oldest_first(self, tmp_path):
        """A corrupt-entry storm must not grow quarantine/ without bound:
        past the cap, the oldest entries are evicted (and counted)."""
        import os as _os

        from repro.obs.metrics import MetricsRegistry

        cache = ResultCache(tmp_path / "cache", quarantine_cap=2)
        metrics = MetricsRegistry()
        cache.attach_metrics(metrics)
        tasks = [
            SimTask(config=SMALL, p=0.01 * (index + 1)) for index in range(4)
        ]
        result, _ = tasks[0].execute()
        names = []
        for index, task in enumerate(tasks):
            path = cache.put(task, result)
            path.write_text("garbage")
            assert cache.get(task) is None
            moved = cache.quarantine_root / path.name
            # Distinct mtimes so oldest-first is deterministic even on a
            # coarse filesystem clock.
            _os.utime(moved, (index, index))
            names.append(path.name)
        kept = sorted(entry.name for entry in cache.quarantine_root.glob("*.json"))
        assert kept == sorted(names[-2:])  # newest two survive
        assert cache.stats.quarantined == 4
        assert cache.stats.quarantine_evicted == 2
        assert metrics.counter("cache.quarantine_evicted") == 2

    def test_quarantine_cap_env_and_validation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_QUARANTINE_CAP", "7")
        assert ResultCache(tmp_path / "a").quarantine_cap == 7
        assert ResultCache(tmp_path / "b", quarantine_cap=3).quarantine_cap == 3
        with pytest.raises(ValueError):
            ResultCache(tmp_path / "c", quarantine_cap=0)

    def test_entry_is_inspectable_json(self, cache):
        task = SimTask(config=SMALL, label="probe")
        result, _ = task.execute()
        path = cache.put(task, result, elapsed=1.5)
        entry = json.loads(path.read_text())
        assert entry["schema"] == CACHE_SCHEMA_VERSION
        assert entry["task"]["attack"] == "uaa"
        assert entry["elapsed_seconds"] == 1.5
        assert entry["result"]["normalized_lifetime"] == pytest.approx(
            result.normalized_lifetime
        )


class TestInjectedCorruption:
    def test_injected_corruption_quarantines_as_a_miss(self, cache):
        from repro.sim.faults import install

        task = SimTask(config=SMALL)
        result, _ = task.execute()
        install("corrupt-cache=1.0")
        try:
            cache.put(task, result)
        finally:
            install(None)
        assert cache.get(task) is None  # truncated entry, not an exception
        assert cache.stats.quarantined == 1
        # A clean rewrite recovers the key.
        cache.put(task, result)
        assert cache.get(task).normalized_lifetime == result.normalized_lifetime


class TestInvalidation:
    def test_schema_bump_invalidates(self, tmp_path):
        task = SimTask(config=SMALL)
        result, _ = task.execute()
        old = ResultCache(tmp_path / "cache")
        old.put(task, result)
        bumped = ResultCache(tmp_path / "cache", schema_version=CACHE_SCHEMA_VERSION + 1)
        assert bumped.get(task) is None
        assert bumped.stats.misses == 1

    def test_schema_version_is_the_ensemble_era(self):
        # Bumped 3 -> 4 when the engine name joined the task payload
        # (the trial-stacked ensemble made it result-relevant).  Bump
        # this pin alongside any future schema change.
        assert CACHE_SCHEMA_VERSION == 4

    def test_previous_schema_entries_are_clean_misses(self, tmp_path):
        """Entries from the pre-ensemble cache era must read as plain
        misses -- not hits, and not quarantined as corrupt (their bytes
        are valid JSON of an older schema, left untouched on disk)."""
        task = SimTask(config=SMALL)
        result, _ = task.execute()
        old = ResultCache(
            tmp_path / "cache", schema_version=CACHE_SCHEMA_VERSION - 1
        )
        old_path = old.put(task, result)
        current = ResultCache(tmp_path / "cache")
        assert current.get(task) is None
        assert current.stats.misses == 1
        assert current.stats.quarantined == 0
        assert old_path.exists()  # old-era entry preserved, not purged
        # A fresh store lands under the new key and hits thereafter.
        new_path = current.put(task, result)
        assert new_path != old_path
        restored = current.get(task)
        assert restored is not None
        assert restored.normalized_lifetime == result.normalized_lifetime

    def test_engine_is_part_of_the_key(self):
        """The schema-4 payload addition: identical tasks that differ only
        in engine must occupy distinct cache entries."""
        batched = SimTask(config=SMALL, engine="fluid-batched")
        ensemble = SimTask(config=SMALL, engine="fluid-ensemble")
        assert task_key(batched) != task_key(ensemble)


class TestRunnerIntegration:
    def test_warm_rerun_performs_zero_simulations(self, tmp_path):
        """The acceptance criterion: a warm-cache rerun of a sweep simulates
        nothing and returns identical numbers."""
        cold_cache = ResultCache(tmp_path / "cache")
        cold = spare_fraction_sweep(SMALL, cache=cold_cache)
        assert cold_cache.stats.misses == len(cold)
        assert cold_cache.stats.hits == 0

        warm_cache = ResultCache(tmp_path / "cache")
        warm = spare_fraction_sweep(SMALL, cache=warm_cache)
        assert warm_cache.stats.hits == len(warm)
        assert warm_cache.stats.misses == 0  # zero simulations performed
        for (fa, a), (fb, b) in zip(cold, warm):
            assert fa == fb
            assert a.normalized_lifetime == b.normalized_lifetime

    def test_runner_stats_report_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = [SimTask(config=SMALL), SimTask(config=SMALL, seed=9)]
        _, cold_stats = SimRunner(cache=cache).run_detailed(tasks)
        assert cold_stats.simulated == 2
        _, warm_stats = SimRunner(cache=cache).run_detailed(tasks)
        assert warm_stats.cache_hits == 2
        assert warm_stats.simulated == 0

    def test_cache_shared_across_different_drivers(self, tmp_path):
        """Sweeps and comparisons that contain the same configuration share
        cache entries (content addressing, not per-driver namespaces)."""
        cache = ResultCache(tmp_path / "cache")
        uaa_scheme_comparison(SMALL, cache=cache)
        warm = ResultCache(tmp_path / "cache")
        uaa_scheme_comparison(SMALL, cache=warm)
        assert warm.stats.hits == 4
        assert warm.stats.misses == 0
