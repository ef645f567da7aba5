"""Death runs: a hot slot's chain of one-death epochs settled in one step.

In the batched kernel's sequential regime a popped one-death epoch opens
a *run*: the same slot's next deaths, for as long as each would be a
one-death epoch of its own, settled from the scheme state's lookahead in
one vectorized step.  Runs are an accelerator, never a semantic change,
so every test here runs the same simulation twice -- runs on, and runs
off (the stacked Max-WE lookahead declines, so each death goes through
the scalar ``replace()``) -- and compares the whole serialized result,
timeline included, plus every ``sim.*`` counter and histogram.  Each leg
also asserts that the run path actually fired where it is meant to.
"""

import json

import numpy as np
import pytest

import repro.sim.ensemble as ensemble_module
import repro.sim.lifetime as lifetime_module
from repro.attacks.bpa import BirthdayParadoxAttack
from repro.attacks.repeated import RepeatedAddressAttack
from repro.attacks.uaa import UniformAddressAttack
from repro.core.maxwe import MaxWE, MaxWEStackedState
from repro.endurance.emap import EnduranceMap
from repro.endurance.linear import LinearEnduranceModel, linear_endurance_map
from repro.obs.metrics import MetricsRegistry
from repro.sim.ensemble import EnsembleMember, simulate_ensemble
from repro.sim.frontier import DeathFrontier
from repro.sim.lifetime import LifetimeSimulator
from repro.sim.reference import exact_lifetime
from repro.sparing.ps import PS

#: Counter that exists only with runs on; everything else must match.
RUN_COUNTER = "sim.run_deaths"


def _decline(*_args):
    return None


def _observable(results, metrics):
    """Everything a run leaves behind, minus wall-clock timings."""
    snapshot = metrics.snapshot()
    counters = {
        name: value
        for name, value in snapshot["counters"].items()
        if name.startswith("sim.") and name != RUN_COUNTER
    }
    histograms = {
        name: value
        for name, value in snapshot["histograms"].items()
        if name.startswith("sim.")
    }
    return (
        json.dumps([result.to_dict() for result in results], sort_keys=True),
        counters,
        histograms,
    )


def _both(monkeypatch, simulate):
    """Run ``simulate(metrics)`` with runs on, then off; compare; return
    the run-death count of the on leg."""
    on_metrics = MetricsRegistry()
    on = _observable(simulate(on_metrics), on_metrics)
    with monkeypatch.context() as patch:
        patch.setattr(MaxWEStackedState, "lookahead", _decline)
        off_metrics = MetricsRegistry()
        off = _observable(simulate(off_metrics), off_metrics)
    assert RUN_COUNTER not in off_metrics.snapshot()["counters"]
    assert on[0] == off[0]  # whole results, timeline included, exact floats
    assert on[1] == off[1]  # sim.* counters
    assert on[2] == off[2]  # sim.* histograms (epoch_size included)
    return on_metrics.snapshot()["counters"].get(RUN_COUNTER, 0)


def _solo(emap_factory, attack, scheme_factory, seed, **kwargs):
    def simulate(metrics):
        simulator = LifetimeSimulator(
            emap_factory(),
            attack,
            scheme_factory(),
            rng=seed,
            engine="fluid-batched",
            metrics=metrics,
            **kwargs,
        )
        return [simulator.run()]

    return simulate


def _linear_map(regions=256, per=4, seed=7):
    # A wide spread (q = 1000), so that under hot_fraction < 1 the weakest
    # lines die from background wear within the hot slot's life.
    model = LinearEnduranceModel.from_q(1000.0, e_low=1.0)
    return linear_endurance_map(regions * per, regions, model, rng=seed)


def _hop_map():
    """20 regions x 4 lines, ranked by region *mean* for Max-WE(0.4, 0.5):
    regions 16-19 (all weak) become the SWRs, 12-15 their RWRs, 8-11
    the additional pool.  Weak lines in working regions 0-3 die first
    from background wear (pool rescues), then the weak RWR line 48
    takes its SWR hop inside the sequential regime, and its SWR line
    (endurance ~10) dies right after."""
    rng = np.random.default_rng(5)
    values = np.empty((20, 4))
    values[0:8] = 2.5e6 + rng.random((8, 4)) * 1e5
    values[8:12] = 1.5e6 + rng.random((4, 4)) * 1e5
    values[12:16] = 1.0e6 + rng.random((4, 4)) * 1e5
    values[16:20] = 10.0 + np.arange(16).reshape(4, 4)
    values[0:4, 0] = (50.0, 60.0, 70.0, 80.0)
    values[12, 0] = 200.0
    return EnduranceMap(values.ravel(), regions=20)


@pytest.fixture
def commits(monkeypatch):
    """Record ``(state code before, deaths)`` of every stacked commit."""
    seen = []
    commit = MaxWEStackedState.commit_lookahead

    def spy(self, slot, dead_line, deaths):
        seen.append((int(self._state[slot]), deaths))
        return commit(self, slot, dead_line, deaths)

    monkeypatch.setattr(MaxWEStackedState, "commit_lookahead", spy)
    return seen


@pytest.fixture
def stops(monkeypatch):
    """Classify why each run stopped short of its lookahead: at the
    frontier's runner-up, or at a sentinel."""
    seen = []
    runners = []
    peek = DeathFrontier.peek
    prefix = ensemble_module._run_prefix

    def peek_spy(self):
        runners.append(peek(self))
        return runners[-1]

    def prefix_spy(times, limit, reach):
        kept = prefix(times, limit, reach)
        if kept < times.size:
            runner = runners[-1]
            seen.append("runner" if runner and runner[0] == limit else "ceiling")
        return kept

    monkeypatch.setattr(DeathFrontier, "peek", peek_spy)
    monkeypatch.setattr(ensemble_module, "_run_prefix", prefix_spy)
    return seen


def _maxwe():
    return MaxWE(0.1, 0.9)


def _wide_pool():
    # A larger pool keeps the hot slot alive long enough, at a low hot
    # fraction, for background deaths to land inside its runs.
    return MaxWE(0.2, 0.5)


class TestSchemes:
    @pytest.mark.parametrize("fallback", [True, False])
    def test_maxwe_swr_first_hop_inside_a_run(self, monkeypatch, commits, fallback):
        scheme = lambda: MaxWE(  # noqa: E731
            0.4, 0.5, region_metric="mean", rwr_fallback_to_lmt=fallback
        )
        attack = BirthdayParadoxAttack(hot_fraction=0.9)
        run_deaths = _both(monkeypatch, _solo(_hop_map, attack, scheme, seed=3))
        assert run_deaths > 0
        # A commit from the unreplaced state (code 0) with two or more
        # deaths is a run whose first death was the SWR hop.
        hops = [deaths for state, deaths in commits if state == 0 and deaths >= 2]
        assert hops
        if not fallback:
            # Strict mode: the hop, then the SWR line's death fails.
            assert hops == [2]

    @pytest.mark.parametrize("hot_fraction", [1.0, 0.9])
    def test_bpa(self, monkeypatch, hot_fraction):
        attack = BirthdayParadoxAttack(hot_fraction=hot_fraction)
        assert _both(monkeypatch, _solo(_linear_map, attack, _maxwe, seed=4)) > 0

    def test_background_deaths_cut_runs(self, monkeypatch, stops):
        attack = BirthdayParadoxAttack(hot_fraction=0.2)
        assert _both(monkeypatch, _solo(_linear_map, attack, _wide_pool, seed=4)) > 0
        assert "runner" in stops

    def test_streaming(self, monkeypatch):
        attack = RepeatedAddressAttack(target=5)
        assert _both(monkeypatch, _solo(_linear_map, attack, _maxwe, seed=2)) > 0

    def test_device_over_frontier_limit(self, monkeypatch, stops):
        # The frontier indexes only the FRONTIER_LIMIT soonest deaths; once
        # the other indexed slots have died, its sentinel bounds the run.
        monkeypatch.setattr(lifetime_module, "FRONTIER_LIMIT", 4)
        attack = BirthdayParadoxAttack(hot_fraction=0.2)
        assert _both(monkeypatch, _solo(_linear_map, attack, _wide_pool, seed=4)) > 0
        assert "ceiling" in stops

    @pytest.mark.parametrize("scheme", ["ps", "ps-worst"])
    def test_fallback_schemes_settle_through_replace(self, monkeypatch, scheme):
        # The fallback state declines the lookahead, so PS decides every
        # death of its hot slot through replace(): no run deaths.
        factory = {"ps": PS.average_case, "ps-worst": PS.worst_case}[scheme]
        attack = BirthdayParadoxAttack(hot_fraction=0.9)
        simulate = _solo(_linear_map, attack, lambda: factory(0.1), seed=4)
        assert _both(monkeypatch, simulate) == 0

    def test_timeline_cap_mid_run(self, monkeypatch, commits):
        simulate = _solo(
            _linear_map,
            BirthdayParadoxAttack(hot_fraction=1.0),
            _maxwe,
            seed=4,
            record_timeline=True,
            max_timeline_events=7,
        )
        assert _both(monkeypatch, simulate) > 0
        [result] = simulate(MetricsRegistry())
        assert len(result.timeline) == 7
        # The first run opens after the four-epoch entry streak and
        # reaches past the cap.
        assert commits[0][1] > 7 - lifetime_module.SEQUENTIAL_ENTER_STREAK

    def test_three_trial_ensemble(self, monkeypatch):
        def simulate(metrics):
            return [
                simulate_ensemble(
                    EnsembleMember(
                        emap=_linear_map(seed=seed),
                        attack=BirthdayParadoxAttack(hot_fraction=hot),
                        sparing=MaxWE(0.1, 0.9),
                        rng=seed,
                    ),
                    engine="fluid-ensemble",
                    record_timeline=True,
                    metrics=metrics,
                )
                for seed, hot in ((1, 1.0), (2, 0.9), (3, 1.0))
            ]

        assert _both(monkeypatch, simulate) > 0


class _UnknownFloorPS(PS):
    """PS without a replacement floor: every epoch holds one death."""

    def replacement_extra_floor(self):
        return None


def test_unknown_floor_matches_exact_engine():
    """A never-removing scheme may leave its floor unknown (``None``):
    the kernel then delivers one death per epoch, exactly as the scalar
    oracle orders them."""
    emap = _linear_map(64, 4, seed=1)
    exact = exact_lifetime(emap, UniformAddressAttack(), _UnknownFloorPS(0.1), rng=1)
    batched = LifetimeSimulator(
        emap, UniformAddressAttack(), _UnknownFloorPS(0.1), rng=1
    ).run()
    assert (batched.deaths, batched.replacements, batched.failure_reason) == (
        exact.deaths,
        exact.replacements,
        exact.failure_reason,
    )
    assert batched.writes_served == pytest.approx(exact.writes_served, rel=1e-9)
    assert batched.metadata["epochs"] == batched.deaths
