"""Differential tests: the epoch kernel vs the scalar oracle vs the reference.

The vectorized epoch kernel (``fluid-batched``) must be *exact* with
respect to the scalar event loop (:func:`~repro.sim.reference.exact_lifetime`,
engine label ``fluid-exact``): identical death and
replacement counts, identical failure reason, served writes equal up to
floating-point summation order (the batched kernel integrates each epoch
with a cumulative sum; the scalar loop adds one interval at a time).
The Hypothesis sweep pins this across randomized devices, every sparing
family, and three attack profiles; dedicated tests stress the epoch
machinery (batch limits, heap compaction, pool exhaustion mid-batch)
where the two implementations could plausibly drift apart.

A final leg closes the loop against the exact per-write
:class:`~repro.sim.reference.ReferenceSimulator`, with the loose
tolerance the fluid approximation warrants.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.lifetime as lifetime_module
import repro.sim.reference as reference_module
from repro.attacks.bpa import BirthdayParadoxAttack
from repro.attacks.repeated import RepeatedAddressAttack
from repro.attacks.uaa import UniformAddressAttack
from repro.core.maxwe import MaxWE
from repro.endurance.emap import EnduranceMap
from repro.endurance.linear import LinearEnduranceModel, linear_endurance_map
from repro.salvage.ecp import ECP
from repro.salvage.freep import FreeP
from repro.sim.lifetime import simulate_lifetime
from repro.sim.reference import ReferenceSimulator, exact_lifetime
from repro.sparing.base import (
    BATCH_FAIL,
    BATCH_REPLACE,
    BatchOutcome,
    FailDevice,
    ReplaceWith,
    SpareScheme,
)
from repro.sparing.none import NoSparing
from repro.sparing.pcd import PCD
from repro.sparing.ps import PS

#: The scalar oracle and the batched kernel, keyed by the engine label
#: their results report.
ORACLE_AND_KERNEL = {"fluid-exact": exact_lifetime, "fluid-batched": simulate_lifetime}

#: Served-writes agreement bound between the oracle and the kernel (counts
#: and failure reasons must match exactly; only summation order differs).
WRITES_RTOL = 1e-9

#: Fresh-instance factories -- schemes are stateful, so each engine run
#: needs its own copy initialized from scratch.
SCHEME_FACTORIES = {
    "none": lambda: NoSparing(),
    "pcd": lambda: PCD(0.1),
    "ps": lambda: PS.average_case(0.1),
    "ps-weakest": lambda: PS(0.1, selection="weakest", allocation="strongest-first"),
    "max-we": lambda: MaxWE(0.1, 0.9),
    "ecp": lambda: ECP(pointers=4, bonus_per_pointer=0.05),
    "freep": lambda: FreeP(0.1),
}

ATTACK_FACTORIES = {
    "uaa": lambda: UniformAddressAttack(),
    "bpa": lambda: BirthdayParadoxAttack(),
    "streaming": lambda: RepeatedAddressAttack(target=0),
}


@st.composite
def random_maps(draw):
    regions = draw(st.integers(min_value=20, max_value=60))
    lines_per_region = draw(st.integers(min_value=1, max_value=3))
    values = draw(
        st.lists(
            st.floats(min_value=10.0, max_value=10_000.0),
            min_size=regions * lines_per_region,
            max_size=regions * lines_per_region,
        )
    )
    return EnduranceMap(np.array(values), regions=regions)


def both_engines(emap, attack_name, scheme_name, seed):
    """Run the same configuration on the oracle and the kernel, fresh state each."""
    results = {}
    for engine, run in ORACLE_AND_KERNEL.items():
        results[engine] = run(
            emap,
            ATTACK_FACTORIES[attack_name](),
            SCHEME_FACTORIES[scheme_name](),
            rng=seed,
            record_timeline=False,
        )
    return results["fluid-exact"], results["fluid-batched"]


def assert_engines_agree(exact, batched):
    assert batched.deaths == exact.deaths
    assert batched.replacements == exact.replacements
    assert batched.failure_reason == exact.failure_reason
    scale = max(abs(exact.writes_served), 1.0)
    assert abs(batched.writes_served - exact.writes_served) / scale <= WRITES_RTOL
    assert batched.metadata["engine"] == "fluid-batched"
    assert exact.metadata["engine"] == "fluid-exact"


class TestEngineEquivalence:
    """The acceptance criterion: batched == exact on randomized devices."""

    @pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
    @pytest.mark.parametrize("attack_name", sorted(ATTACK_FACTORIES))
    @given(emap=random_maps(), seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_batched_matches_exact(self, scheme_name, attack_name, emap, seed):
        exact, batched = both_engines(emap, attack_name, scheme_name, seed)
        assert_engines_agree(exact, batched)

    def test_uniform_endurance_ties(self):
        """Every line dying at the same instant exercises the batch
        boundary tie-trim: a partial tie class would reorder same-time
        events between the engines."""
        emap = EnduranceMap(np.full(120, 100.0), regions=60)
        for scheme_name in ("max-we", "ps", "pcd"):
            exact, batched = both_engines(emap, "uaa", scheme_name, seed=5)
            assert_engines_agree(exact, batched)

    def test_tiny_batch_limit_still_exact(self, monkeypatch):
        """Forcing one-death epochs must not change any result -- the
        safe-prefix logic degrades to the scalar event order."""
        monkeypatch.setattr(lifetime_module, "BATCH_LIMIT", 2)
        emap = EnduranceMap(
            np.linspace(50.0, 5000.0, 80), regions=40
        )
        for scheme_name in ("max-we", "ps", "ecp"):
            exact, batched = both_engines(emap, "uaa", scheme_name, seed=9)
            assert_engines_agree(exact, batched)
            # At most BATCH_LIMIT deaths fit in one epoch.
            assert batched.metadata["epochs"] >= batched.deaths // 2

    def test_timeline_events_match_when_recorded(self):
        """With timelines on, both engines log the same death sequence."""
        emap = EnduranceMap(np.linspace(100.0, 2000.0, 60), regions=30)
        runs = {}
        for engine, run in ORACLE_AND_KERNEL.items():
            runs[engine] = run(
                emap,
                UniformAddressAttack(),
                MaxWE(0.1, 0.9),
                rng=3,
                record_timeline=True,
            )
        exact, batched = runs["fluid-exact"], runs["fluid-batched"]
        assert len(exact.timeline) == len(batched.timeline)
        for a, b in zip(exact.timeline, batched.timeline):
            assert (a.slot, a.dead_line, a.action, a.replacement_line) == (
                b.slot,
                b.dead_line,
                b.action,
                b.replacement_line,
            )
            assert b.writes_served == pytest.approx(a.writes_served, rel=1e-9)


class TestHeapCompaction:
    """The scalar oracle's bounded heap (heap cap + compaction)."""

    def test_compaction_triggers_and_preserves_results(self, monkeypatch):
        emap = EnduranceMap(np.linspace(50.0, 5000.0, 100), regions=50)

        def run():
            return exact_lifetime(
                emap,
                UniformAddressAttack(),
                ECP(pointers=4, bonus_per_pointer=0.05),
                rng=7,
                record_timeline=False,
            )

        baseline = run()
        assert baseline.metadata["heap_compactions"] == 0
        monkeypatch.setattr(reference_module, "HEAP_SLACK", 0)
        compacted = run()
        assert compacted.metadata["heap_compactions"] > 0
        assert compacted.writes_served == baseline.writes_served
        assert compacted.deaths == baseline.deaths
        assert compacted.replacements == baseline.replacements


class _TwoSpares(SpareScheme):
    """Minimal scalar-only scheme: two spare handouts, then failure.

    Exercises the base-class ``replace_batch`` fallback (no override, no
    ``replacement_extra_floor``), i.e. the third-party-scheme path.
    """

    name = "two-spares"

    def _build_backing(self):
        assert self._emap is not None
        return np.arange(self._emap.lines - 2, dtype=np.intp)

    def replace(self, slot, dead_line):
        total = self.emap.lines
        if dead_line < total - 2:
            spare = total - 2 if self._handed == 0 else total - 1
            self._handed += 1
            if self._handed <= 2:
                return ReplaceWith(line=spare)
        return FailDevice(reason="out of spares")

    def initialize(self, emap, rng=None):
        self._handed = 0
        super().initialize(emap, rng)


class TestScalarFallback:
    def test_scheme_without_batch_override_runs_batched(self):
        emap = EnduranceMap(np.linspace(100.0, 1000.0, 40), regions=20)
        runs = {}
        for engine, run in ORACLE_AND_KERNEL.items():
            runs[engine] = run(
                emap,
                UniformAddressAttack(),
                _TwoSpares(),
                rng=1,
                record_timeline=False,
            )
        assert_engines_agree(runs["fluid-exact"], runs["fluid-batched"])
        assert runs["fluid-batched"].failure_reason == "out of spares"


class TestBatchOutcomeValidation:
    def test_fail_must_be_trailing(self):
        with pytest.raises(ValueError, match="last action"):
            BatchOutcome(
                actions=np.array([BATCH_FAIL, BATCH_REPLACE], dtype=np.int8),
                fail_reason="early",
            )

    def test_fail_reason_required_iff_failed(self):
        with pytest.raises(ValueError, match="fail_reason"):
            BatchOutcome(actions=np.array([BATCH_FAIL], dtype=np.int8))
        with pytest.raises(ValueError, match="fail_reason"):
            BatchOutcome(
                actions=np.array([BATCH_REPLACE], dtype=np.int8),
                lines=np.array([3]),
                fail_reason="not actually failed",
            )

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one death"):
            BatchOutcome(actions=np.empty(0, dtype=np.int8))

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ValueError, match="index-aligned"):
            BatchOutcome(
                actions=np.array([BATCH_REPLACE, BATCH_REPLACE], dtype=np.int8),
                lines=np.array([1]),
            )

    def test_constructors(self):
        replaced = BatchOutcome.all_replaced(np.array([4, 5]))
        assert replaced.size == 2 and not replaced.failed
        removed = BatchOutcome.all_removed(3)
        assert removed.size == 3 and not removed.failed
        partial = BatchOutcome.replaced_then_fail(np.array([7]), reason="dry")
        assert partial.size == 2 and partial.failed
        assert partial.lines[0] == 7 and partial.actions[-1] == BATCH_FAIL
        dead = BatchOutcome.fail("gone")
        assert dead.size == 1 and dead.failed and dead.fail_reason == "gone"


def assert_bit_identical(batched, ensemble):
    """``fluid-ensemble`` results must equal ``fluid-batched`` *exactly* --
    one epoch kernel runs both, so not even summation order differs.  The
    whole serialized result is compared (timeline and the regime
    counters ``epochs`` / ``sequential_rounds`` / ``regime_switches`` /
    ``full_scans`` included); only ``metadata["engine"]`` may differ."""
    assert ensemble.metadata["engine"] == "fluid-ensemble"
    assert batched.metadata["engine"] == "fluid-batched"
    solo, stacked = batched.to_dict(), ensemble.to_dict()
    del solo["metadata"]["engine"], stacked["metadata"]["engine"]
    assert stacked == solo  # floats compared exactly, no tolerance


class TestEnsembleEngine:
    """The ``fluid-ensemble`` label vs ``fluid-batched``: bit-identical,
    a *stronger* claim than the exact/batched writes tolerance above."""

    @pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
    @pytest.mark.parametrize("attack_name", sorted(ATTACK_FACTORIES))
    def test_single_trial_bit_identical(self, scheme_name, attack_name):
        model = LinearEnduranceModel.from_q(20.0, e_low=200.0)
        emap = linear_endurance_map(120, 40, model, rng=11)
        runs = {}
        for engine in ("fluid-batched", "fluid-ensemble"):
            runs[engine] = simulate_lifetime(
                emap,
                ATTACK_FACTORIES[attack_name](),
                SCHEME_FACTORIES[scheme_name](),
                rng=13,
                engine=engine,
                record_timeline=False,
            )
        assert_bit_identical(runs["fluid-batched"], runs["fluid-ensemble"])

    @pytest.mark.parametrize("scheme_name", ("max-we", "ps", "pcd", "none"))
    @given(emap=random_maps(), seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_randomized_devices_bit_identical(self, scheme_name, emap, seed):
        runs = {}
        for engine in ("fluid-batched", "fluid-ensemble"):
            runs[engine] = simulate_lifetime(
                emap,
                UniformAddressAttack(),
                SCHEME_FACTORIES[scheme_name](),
                rng=seed,
                engine=engine,
                record_timeline=False,
            )
        assert_bit_identical(runs["fluid-batched"], runs["fluid-ensemble"])

    def test_timeline_events_bit_identical(self):
        emap = EnduranceMap(np.linspace(100.0, 2000.0, 60), regions=30)
        runs = {}
        for engine in ("fluid-batched", "fluid-ensemble"):
            runs[engine] = simulate_lifetime(
                emap,
                UniformAddressAttack(),
                MaxWE(0.1, 0.9),
                rng=3,
                engine=engine,
                record_timeline=True,
            )
        batched, ensemble = runs["fluid-batched"], runs["fluid-ensemble"]
        assert len(ensemble.timeline) == len(batched.timeline)
        for a, b in zip(batched.timeline, ensemble.timeline):
            assert (a.slot, a.dead_line, a.action, a.replacement_line) == (
                b.slot,
                b.dead_line,
                b.action,
                b.replacement_line,
            )
            assert b.writes_served == a.writes_served  # exact, not approx


class TestAgainstReference:
    """Close the loop: both fluid engines vs the exact per-write simulator."""

    def test_three_way_agreement_under_uaa(self):
        model = LinearEnduranceModel.from_q(20.0, e_low=200.0)
        emap = linear_endurance_map(80, 40, model, rng=3)
        reference = ReferenceSimulator(
            emap,
            UniformAddressAttack(random_data=False),
            MaxWE(0.1, 0.9),
            rng=3,
            max_writes=10_000_000,
        ).run()
        for engine, run in ORACLE_AND_KERNEL.items():
            fluid = run(
                emap,
                UniformAddressAttack(),
                MaxWE(0.1, 0.9),
                rng=3,
                record_timeline=False,
            )
            assert fluid.normalized_lifetime == pytest.approx(
                reference.normalized_lifetime, rel=0.05
            )
            assert fluid.replacements == reference.replacements


class TestSequentialRegime:
    """The adaptive sequential kernel: one-death-per-epoch streams must
    engage the death-frontier micro-loop and still be exact vs the
    scalar engine (solo) and bit-identical vs solo batched (ensemble)."""

    #: Wide-spread endurance with a single hot slot: every death is its
    #: own epoch, the canonical sequential (BPA-shaped) stream.  Eight
    #: lines per region keeps the hot region supplied with spares long
    #: enough for every scheme to outlast the entry streak.
    @staticmethod
    def stream_map():
        return EnduranceMap(np.linspace(80.0, 4000.0, 800), regions=100)

    @pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
    def test_sequential_stream_matches_exact(self, scheme_name):
        exact, batched = both_engines(
            self.stream_map(), "streaming", scheme_name, seed=17
        )
        assert_engines_agree(exact, batched)
        meta = batched.metadata
        if batched.deaths > lifetime_module.SEQUENTIAL_ENTER_STREAK + 1:
            # Enough size-1 epochs to trip the streak: the regime must
            # have engaged and absorbed the remaining deaths.
            assert meta["regime_switches"] >= 1
            assert meta["sequential_rounds"] > 0
            # Selection work stayed O(batch): full scans are bounded by
            # the pre-switch streak, not the death count.
            assert meta["full_scans"] <= (
                lifetime_module.SEQUENTIAL_ENTER_STREAK
                + meta["regime_switches"]
            )

    @pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
    def test_sequential_stream_ensemble_bit_identical(self, scheme_name):
        runs = {}
        for engine in ("fluid-batched", "fluid-ensemble"):
            runs[engine] = simulate_lifetime(
                self.stream_map(),
                ATTACK_FACTORIES["streaming"](),
                SCHEME_FACTORIES[scheme_name](),
                rng=17,
                engine=engine,
                record_timeline=False,
            )
        assert_bit_identical(runs["fluid-batched"], runs["fluid-ensemble"])

    def test_regrow_exits_and_reenters_cleanly(self, monkeypatch):
        """Force hair-trigger entry (streak=1) with a tiny epoch cap on a
        map whose deaths alternate between an isolated salvaged line
        (size-1 epochs -> enter) and a dense tie cluster (regrown epochs
        -> bail): the kernel must bounce between regimes repeatedly
        without drifting from the scalar engine."""
        monkeypatch.setattr(lifetime_module, "SEQUENTIAL_ENTER_STREAK", 1)
        monkeypatch.setattr(lifetime_module, "SEQUENTIAL_EPOCH_CAP", 1)
        values = np.concatenate(
            [
                np.array([100.0]),  # dies first, extends far past the cluster
                np.full(30, 150.0),  # dense tie cluster regrows every round
                np.geomspace(1.0e4, 1.0e5, 49),  # far quiet tail
            ]
        )
        results = {}
        for engine, run in ORACLE_AND_KERNEL.items():
            results[engine] = run(
                EnduranceMap(values.copy(), regions=40),
                UniformAddressAttack(),
                ECP(pointers=100, bonus_per_pointer=0.05),
                rng=23,
                record_timeline=False,
            )
        exact, batched = results["fluid-exact"], results["fluid-batched"]
        assert_engines_agree(exact, batched)
        meta = batched.metadata
        assert meta["regime_switches"] >= 2  # entered and exited (many times)
        assert meta["sequential_rounds"] > 0

    def test_sequential_timeline_matches_exact(self):
        """The micro-loop's timeline events (scalar replace path) must
        mirror the scalar engine's event stream."""
        runs = {}
        for engine, run in ORACLE_AND_KERNEL.items():
            runs[engine] = run(
                self.stream_map(),
                ATTACK_FACTORIES["streaming"](),
                SCHEME_FACTORIES["max-we"](),
                rng=17,
                record_timeline=True,
            )
        exact, batched = runs["fluid-exact"], runs["fluid-batched"]
        assert batched.metadata["sequential_rounds"] > 0
        assert len(exact.timeline) == len(batched.timeline)
        for a, b in zip(exact.timeline, batched.timeline):
            assert (a.slot, a.dead_line, a.action, a.replacement_line) == (
                b.slot,
                b.dead_line,
                b.action,
                b.replacement_line,
            )
            assert b.writes_served == pytest.approx(a.writes_served, rel=1e-9)

    @pytest.mark.parametrize("engine", ("fluid-batched", "fluid-ensemble"))
    def test_full_paranoia_off_bit_identity_through_sequential(self, engine):
        """Paranoia=full disables the frontier (the guard audits every
        epoch); paranoia=off rides the sequential micro-loop.  The two
        paths must still be bit-identical -- the regression pinning the
        new kernel against the state-integrity referee."""
        results = {}
        for paranoia in ("off", "full"):
            results[paranoia] = simulate_lifetime(
                self.stream_map(),
                ATTACK_FACTORIES["streaming"](),
                SCHEME_FACTORIES["ps"](),
                rng=17,
                engine=engine,
                paranoia=paranoia,
                record_timeline=False,
            )
        off, full = results["off"], results["full"]
        if engine == "fluid-batched":
            assert off.metadata["sequential_rounds"] > 0
            assert full.metadata["sequential_rounds"] == 0
        assert full.writes_served == off.writes_served  # bit-identical
        assert full.deaths == off.deaths
        assert full.replacements == off.replacements
        assert full.failure_reason == off.failure_reason
