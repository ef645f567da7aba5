"""Tests for the sampled differential shadow audits."""

import numpy as np
import pytest

import repro.sim.ensemble as ensemble_module
from repro.attacks.uaa import UniformAddressAttack
from repro.core.maxwe import MaxWE
from repro.endurance.emap import EnduranceMap
from repro.obs.metrics import MetricsRegistry
from repro.sim.lifetime import simulate_lifetime
from repro.sim.result import SimulationResult
from repro.verify.shadow import (
    SHADOW_WRITES_RTOL,
    ShadowDivergence,
    compare_runs,
    should_audit,
)
from repro.verify.snapshot import DEBUG_DIR_ENV


@pytest.fixture(autouse=True)
def _no_bundles(monkeypatch):
    monkeypatch.setenv(DEBUG_DIR_ENV, "")


def small_map(seed: int = 7) -> EnduranceMap:
    rng = np.random.default_rng(seed)
    return EnduranceMap(rng.uniform(100.0, 1000.0, size=40 * 2), regions=40)


def result_with(**overrides) -> SimulationResult:
    base = dict(
        writes_served=1000.0,
        total_endurance=2000.0,
        deaths=5,
        replacements=4,
        failure_reason="spares exhausted",
        metadata={},
    )
    base.update(overrides)
    return SimulationResult(**base)


class TestSampling:
    def test_zero_never_audits(self):
        assert not should_audit(0.0, "anything")

    def test_one_always_audits(self):
        assert should_audit(1.0, "anything")

    def test_decision_is_deterministic_per_key(self):
        keys = [f"task-{index}" for index in range(200)]
        first = [should_audit(0.3, key) for key in keys]
        second = [should_audit(0.3, key) for key in keys]
        assert first == second

    def test_rate_is_roughly_honoured(self):
        keys = [f"task-{index}" for index in range(2000)]
        hits = sum(should_audit(0.25, key) for key in keys)
        assert 0.18 < hits / len(keys) < 0.32


class TestCompareRuns:
    def test_identical_results_pass(self):
        compare_runs(result_with(), result_with(), rounds=5)

    def test_float_noise_within_rtol_passes(self):
        shadow = result_with(writes_served=1000.0 * (1.0 + SHADOW_WRITES_RTOL / 10))
        compare_runs(result_with(), shadow, rounds=5)

    def test_death_count_mismatch_diverges(self):
        with pytest.raises(ShadowDivergence) as excinfo:
            compare_runs(result_with(), result_with(deaths=6), rounds=5)
        assert "deaths" in str(excinfo.value)
        assert excinfo.value.details["deaths.batched"] == 5
        assert excinfo.value.details["deaths.exact"] == 6

    def test_served_drift_beyond_rtol_diverges(self):
        shadow = result_with(writes_served=1001.0)
        with pytest.raises(ShadowDivergence, match="writes_served"):
            compare_runs(result_with(), shadow, rounds=5)

    def test_divergence_pins_the_engine_pair(self):
        with pytest.raises(ShadowDivergence) as excinfo:
            compare_runs(
                result_with(),
                result_with(failure_reason="other"),
                rounds=9,
                repro={"seed": "3"},
            )
        assert excinfo.value.repro["engines"] == ["fluid-batched", "fluid-exact"]
        assert excinfo.value.repro["round_window"] == [0, 9]
        assert excinfo.value.repro["seed"] == "3"


class TestSampledAuditsThroughTheEngine:
    def test_clean_run_passes_a_certain_audit(self):
        metrics = MetricsRegistry()
        result = simulate_lifetime(
            small_map(),
            UniformAddressAttack(),
            MaxWE(0.1, 0.9),
            rng=5,
            shadow_sample=1.0,
            metrics=metrics,
        )
        assert result.deaths > 0
        assert metrics.counter("verify.shadow_audits") == 1
        assert metrics.counter("verify.violations") == 0

    def test_audited_result_is_identical_to_unaudited(self):
        unaudited = simulate_lifetime(
            small_map(), UniformAddressAttack(), MaxWE(0.1, 0.9), rng=5
        )
        audited = simulate_lifetime(
            small_map(), UniformAddressAttack(), MaxWE(0.1, 0.9), rng=5,
            shadow_sample=1.0,
        )
        assert audited.writes_served == unaudited.writes_served
        assert audited.deaths == unaudited.deaths

    def test_exact_engine_is_never_audited_against_itself(self):
        # The scalar loop is the audit's oracle, not an engine: naming it
        # as one is rejected before anything runs or is audited.
        metrics = MetricsRegistry()
        with pytest.raises(ValueError, match="exact_lifetime"):
            simulate_lifetime(
                small_map(),
                UniformAddressAttack(),
                MaxWE(0.1, 0.9),
                rng=5,
                engine="fluid-exact",
                shadow_sample=1.0,
                metrics=metrics,
            )
        assert metrics.counter("verify.shadow_audits") == 0
        assert metrics.counter("sim.runs") == 0

    def test_shadow_requires_a_reproducible_seed(self):
        with pytest.raises(ValueError, match="reproduc"):
            simulate_lifetime(
                small_map(),
                UniformAddressAttack(),
                MaxWE(0.1, 0.9),
                rng=np.random.default_rng(5),
                shadow_sample=1.0,
            )

    def test_broken_kernel_is_caught_by_the_audit(self, monkeypatch):
        """Regression harness for the audit itself: a batched epoch kernel
        that over-serves by 1% must be flagged as a divergence."""
        original = ensemble_module._advance_trial

        def broken(*args, **kwargs):
            served, deaths, replacements, reason, timeline, meta = original(
                *args, **kwargs
            )
            return served * 1.01, deaths, replacements, reason, timeline, meta

        monkeypatch.setattr(ensemble_module, "_advance_trial", broken)
        with pytest.raises(ShadowDivergence, match="writes_served"):
            simulate_lifetime(
                small_map(),
                UniformAddressAttack(),
                MaxWE(0.1, 0.9),
                rng=5,
                shadow_sample=1.0,
            )
