"""Regression tests: simulations must not leak state across runs.

``run_batch`` and the sweep drivers share one :class:`EnduranceMap`
across many simulations, and the fluid engine redirects slots by writing
into a backing array it obtains from the sparing scheme.  If the engine
ever mutated the shared endurance array, or wrote through the scheme's
*internal* backing array instead of a copy, every later run in a sweep
would start from a corrupted device.  These tests pin the isolation
guarantees: the emap is bit-identical before and after a simulation, the
scheme's initial backing survives a run unchanged, and repeating a run
against the very same shared objects reproduces the result exactly.
"""

import numpy as np
import pytest

from repro.attacks.bpa import BirthdayParadoxAttack
from repro.attacks.uaa import UniformAddressAttack
from repro.core.maxwe import MaxWE, MaxWEStackedState
from repro.sim.config import ExperimentConfig
from repro.sim.lifetime import simulate_lifetime
from repro.sparing.pcd import PCD
from repro.sparing.ps import PS
from repro.util.memo import run_memo
from repro.wearlevel import make_scheme

SMALL = ExperimentConfig(regions=128, lines_per_region=2, seed=7)


SCHEME_FACTORIES = {
    "max-we": lambda: MaxWE(0.1, 0.9),
    "pcd": lambda: PCD(0.1),
    "ps": lambda: PS.average_case(0.1),
}


class TestEmapIsolation:
    @pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
    def test_endurance_array_bit_identical_after_simulation(self, scheme_name):
        emap = SMALL.make_emap()
        before = emap.line_endurance.copy()
        simulate_lifetime(
            emap, UniformAddressAttack(), SCHEME_FACTORIES[scheme_name](), rng=7
        )
        assert emap.line_endurance.tobytes() == before.tobytes()

    def test_endurance_array_is_write_protected(self):
        emap = SMALL.make_emap()
        with pytest.raises((ValueError, RuntimeError)):
            emap.line_endurance[0] = 1.0

    def test_emap_survives_wearleveled_bpa_run(self):
        emap = SMALL.make_emap()
        before = emap.line_endurance.copy()
        simulate_lifetime(
            emap,
            BirthdayParadoxAttack(),
            MaxWE(0.1, 0.9),
            wearleveler=make_scheme("wawl", lines_per_region=1),
            rng=7,
        )
        np.testing.assert_array_equal(emap.line_endurance, before)


class TestSchemeIsolation:
    def test_initial_backing_unchanged_by_engine(self):
        """The engine redirects slots by mutating a backing array; that must
        be a copy, never the scheme's internal state.  Only runs that
        initialize the caller's scheme can leak into it: paranoia guards
        need the real scheme, so ``paranoia="cheap"`` forces one (the
        stacked-state counterpart is the next test)."""
        from repro.util.rng import derive_rng

        emap = SMALL.make_emap()
        # Replay the engine's initialization on a probe instance to learn
        # the exact initial slot assignment the run will start from.
        probe = MaxWE(0.1, 0.9)
        probe.initialize(emap, derive_rng(7, "sparing"))
        expected = probe.initial_backing

        sparing = MaxWE(0.1, 0.9)
        result = simulate_lifetime(
            emap, UniformAddressAttack(), sparing, rng=7, paranoia="cheap"
        )
        assert result.replacements > 0  # the run did redirect slots
        np.testing.assert_array_equal(sparing.initial_backing, expected)

    def test_stacked_backing_unchanged_by_engine(self, monkeypatch):
        """An unguarded Max-WE run keeps its bookkeeping in a
        :class:`MaxWEStackedState`; the kernel's redirects must not reach
        that state's initial slot assignment either."""
        emap = SMALL.make_emap()
        expected = MaxWEStackedState(MaxWE(0.1, 0.9), emap).backing()

        built = []
        make_batched_state = MaxWE.make_batched_state.__func__

        def capture(cls, scheme, emap):
            state = make_batched_state(cls, scheme, emap)
            built.append(state)
            return state

        monkeypatch.setattr(MaxWE, "make_batched_state", classmethod(capture))
        result = simulate_lifetime(emap, UniformAddressAttack(), MaxWE(0.1, 0.9), rng=7)
        assert result.replacements > 0  # the run did redirect slots
        [state] = built
        assert isinstance(state, MaxWEStackedState)
        np.testing.assert_array_equal(state.backing(), expected)

    def test_shared_backing_and_budgets_are_write_protected(self):
        """The stacked plan's backing and budgets are shared, inside a
        runner run, by every simulation of the map: nobody may write them, and runs on them leave them as
        they were."""
        emap = SMALL.make_emap()
        with run_memo():
            state = MaxWEStackedState(MaxWE(0.1, 0.9), emap)
            backing, budgets, _ = state.initial_arrays(emap.line_endurance)
            assert state.backing() is backing
            before = (backing.copy(), budgets.copy())
            for array in (backing, budgets):
                with pytest.raises(ValueError):
                    array[0] = array[1]
            for attack in (UniformAddressAttack(), BirthdayParadoxAttack()):
                result = simulate_lifetime(emap, attack, MaxWE(0.1, 0.9), rng=7)
                assert result.replacements > 0
            shared = MaxWEStackedState(MaxWE(0.1, 0.9), emap)
            assert shared.backing() is backing  # the runs used this plan
        np.testing.assert_array_equal(backing, before[0])
        np.testing.assert_array_equal(budgets, before[1])

    def test_shared_emap_runs_are_exactly_repeatable(self):
        """The sweep-driver pattern: one emap, many runs.  Any cross-run
        leak (endurance, backing, RNG state) would break bit-equality of
        a repeated configuration."""
        emap = SMALL.make_emap()
        first = simulate_lifetime(emap, UniformAddressAttack(), MaxWE(0.1), rng=7)
        # Interleave a different, mutation-heavy configuration.
        simulate_lifetime(emap, BirthdayParadoxAttack(), PCD(0.2), rng=13)
        second = simulate_lifetime(emap, UniformAddressAttack(), MaxWE(0.1), rng=7)
        assert first.writes_served == second.writes_served
        assert first.deaths == second.deaths
        assert first.replacements == second.replacements

    def test_generator_seeded_ensemble_matches_solo(self):
        """A Generator seed's streams depend on its fork history: the
        stacked Max-WE state draws nothing from the ``"sparing"`` fork,
        but still takes it, so the wear-leveler fork that follows is the
        one a solo run sees."""
        emap = SMALL.make_emap()
        runs = {}
        for engine in ("fluid-batched", "fluid-ensemble"):
            result = simulate_lifetime(
                emap,
                BirthdayParadoxAttack(),
                MaxWE(0.1, 0.9),
                wearleveler=make_scheme("toss-up", lines_per_region=1),
                rng=np.random.default_rng(13),
                engine=engine,
            ).to_dict()
            del result["metadata"]["engine"]
            runs[engine] = result
        assert runs["fluid-ensemble"] == runs["fluid-batched"]

    def test_rebuilt_emap_is_bit_identical(self):
        """The parallel runner rebuilds the emap from config in each worker;
        that rebuild must reproduce the shared-instance map exactly."""
        a = SMALL.make_emap()
        b = SMALL.make_emap()
        assert a.line_endurance.tobytes() == b.line_endurance.tobytes()
