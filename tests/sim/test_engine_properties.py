"""Property tests: invariants of the fluid lifetime engine.

These pin the engine's physics across randomized devices and schemes:

* conservation -- a device can never serve more user writes than its
  total endurance (normalized lifetime <= 1);
* monotonicity -- strictly more spare capacity never shortens Max-WE's
  lifetime; a uniformly stronger chip never lives shorter;
* dominance -- Max-WE is never worse than no protection;
* determinism -- equal seeds give identical runs.

Sparing only pays when the spare pool outlasts the lines it shields, so
the monotonicity and dominance properties are filtered on UAA lifetime
bounds read off Max-WE's allocation plan (:func:`maxwe_uaa_floor`,
:func:`uaa_ceiling`) rather than on a summary of the endurance spread.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.bpa import BirthdayParadoxAttack
from repro.attacks.uaa import UniformAddressAttack
from repro.core.allocation import plan_allocation
from repro.core.maxwe import MaxWE
from repro.endurance.emap import EnduranceMap
from repro.sim.lifetime import simulate_lifetime
from repro.sparing.none import NoSparing
from repro.sparing.pcd import PCD
from repro.sparing.ps import PS
from repro.wearlevel import make_scheme


@st.composite
def random_maps(draw):
    regions = draw(st.integers(min_value=20, max_value=80))
    values = draw(
        st.lists(
            st.floats(min_value=10.0, max_value=10_000.0),
            min_size=regions,
            max_size=regions,
        )
    )
    return EnduranceMap(np.array(values), regions=regions)


def _lines_of(emap, regions):
    """Endurances of every line in ``regions``, region by region."""
    if len(regions) == 0:
        return np.empty(0)
    return np.concatenate([emap.region_lines(int(region)) for region in regions])


def uaa_ceiling(working, spare_lines):
    """Most user writes any scheme can serve under UAA.

    UAA gives each of the ``working.size`` slots the same share ``x`` of
    the writes.  A slot whose original line dies needs a spare line of its
    own, so once ``spare_lines + 1`` originals are dead some death goes
    unserved: the device is gone by the time ``x`` reaches the
    ``(spare_lines + 1)``-th weakest working line.
    """
    if spare_lines >= working.size:
        return np.inf
    return working.size * np.partition(working, spare_lines)[spare_lines]


def maxwe_uaa_floor(emap, spare_fraction):
    """User writes Max-WE is guaranteed to serve under UAA.

    Read off the allocation plan, with every slot written at the same
    rate ``x``.  While ``x`` stays below all three limits below, no SWR
    line and no pool line dies, and every original death finds a rescuer:

    * an RWR slot fails over to its SWR partner, which holds out until
      ``x`` reaches the pair's combined endurance;
    * the other working slots draw on the pool, which covers the first
      ``pool.size`` of their deaths;
    * a pool line lives at least until ``x`` reaches the weakest such
      slot's endurance plus the weakest pool line.
    """
    plan = plan_allocation(emap, spare_fraction)
    rwr = _lines_of(emap, plan.rwr_regions)
    swr = _lines_of(emap, plan.swr_regions)
    pool = _lines_of(emap, plan.additional_regions)
    shielded = np.isin(plan.working_regions, plan.rwr_regions)
    ordinary = np.sort(_lines_of(emap, plan.working_regions[~shielded]))
    limits = [np.inf]
    if rwr.size:
        limits.append((rwr + swr).min())
    if pool.size < ordinary.size:
        limits.append(ordinary[pool.size])
    if pool.size and ordinary.size:
        limits.append(ordinary[0] + pool.min())
    working_lines = plan.working_regions.size * emap.lines_per_region
    return working_lines * min(limits)


def maxwe_uaa_ceiling(emap, spare_fraction):
    """:func:`uaa_ceiling` for Max-WE's working lines and spare budget."""
    plan = plan_allocation(emap, spare_fraction)
    working = _lines_of(emap, plan.working_regions)
    return uaa_ceiling(working, plan.spare_region_count * emap.lines_per_region)


@st.composite
def sparing_schemes(draw):
    kind = draw(st.sampled_from(["none", "pcd", "ps", "ps-worst", "max-we"]))
    if kind == "none":
        return NoSparing()
    if kind == "pcd":
        return PCD(0.1)
    if kind == "ps":
        return PS.average_case(0.1)
    if kind == "ps-worst":
        return PS.worst_case(0.1)
    return MaxWE(0.1, 0.9)


class TestConservation:
    @given(random_maps(), sparing_schemes(), st.integers(min_value=0, max_value=100))
    @settings(max_examples=60, deadline=None)
    def test_lifetime_never_exceeds_total_endurance(self, emap, sparing, seed):
        result = simulate_lifetime(emap, UniformAddressAttack(), sparing, rng=seed)
        assert 0.0 <= result.normalized_lifetime <= 1.0 + 1e-9

    @given(random_maps(), st.integers(min_value=0, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_bpa_through_wawl_also_conserves(self, emap, seed):
        result = simulate_lifetime(
            emap,
            BirthdayParadoxAttack(),
            MaxWE(0.1, 0.9),
            wearleveler=make_scheme("wawl", lines_per_region=1),
            rng=seed,
        )
        assert 0.0 <= result.normalized_lifetime <= 1.0 + 1e-9


class TestMonotonicity:
    @given(random_maps(), st.integers(min_value=0, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_more_spares_never_hurt_maxwe_with_variation(self, emap, seed):
        """Holds whenever the extra spares have real endurance to harvest:
        the filter asks that the most MaxWE(0.05) could serve is within
        what MaxWE(0.2)'s allocation plan guarantees.  A summary of the
        spread does not suffice -- one strong outlier on a flat map clears
        any q-based filter while every spare stays as weak as the lines it
        shields (see test_flat_map_with_outlier_counterexample)."""
        if maxwe_uaa_floor(emap, 0.2) < maxwe_uaa_ceiling(emap, 0.05):
            return
        small = simulate_lifetime(emap, UniformAddressAttack(), MaxWE(0.05), rng=seed)
        large = simulate_lifetime(emap, UniformAddressAttack(), MaxWE(0.2), rng=seed)
        assert large.normalized_lifetime >= small.normalized_lifetime - 1e-9

    def test_flat_map_with_outlier_counterexample(self):
        """Why the property above is filtered, pinned so the engine's
        actual behaviour on degenerate maps is tracked: when all lines are
        equally weak except one outlier, spares buy nothing and more spare
        capacity strictly shortens the lifetime.  The filter rejects it."""
        values = np.full(20, 10.0)
        values[-1] = 210.0
        emap = EnduranceMap(values, regions=20)
        assert maxwe_uaa_floor(emap, 0.2) < maxwe_uaa_ceiling(emap, 0.05)
        small = simulate_lifetime(emap, UniformAddressAttack(), MaxWE(0.05), rng=0)
        large = simulate_lifetime(emap, UniformAddressAttack(), MaxWE(0.2), rng=0)
        assert large.normalized_lifetime < small.normalized_lifetime

    def test_more_spares_never_hurt_on_the_paper_distribution(self):
        """On the paper's own linear endurance spread (q = 50) -- the regime
        the analytic break-even actually covers -- monotonicity does hold."""
        from repro.sim.config import ExperimentConfig

        emap = ExperimentConfig(regions=256, lines_per_region=2, seed=11).make_emap()
        lifetimes = [
            simulate_lifetime(
                emap, UniformAddressAttack(), MaxWE(p), rng=11
            ).normalized_lifetime
            for p in (0.05, 0.1, 0.2, 0.3)
        ]
        assert lifetimes == sorted(lifetimes)

    @given(random_maps(), st.floats(min_value=1.1, max_value=10.0), st.integers(min_value=0, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_stronger_chip_lives_at_least_as_long_absolutely(self, emap, factor, seed):
        stronger = EnduranceMap(emap.line_endurance * factor, emap.regions)
        weak = simulate_lifetime(emap, UniformAddressAttack(), MaxWE(0.1), rng=seed)
        strong = simulate_lifetime(stronger, UniformAddressAttack(), MaxWE(0.1), rng=seed)
        assert strong.writes_served >= weak.writes_served - 1e-6


class TestDominance:
    @given(random_maps(), st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_maxwe_never_worse_than_no_protection_with_variation(self, emap, seed):
        """Whenever Max-WE's allocation plan guarantees at least what no
        protection serves (the device dies with its weakest line), Max-WE
        never serves less.  This is the paper's (q - 1)(1 - p) >= 1
        break-even read off the actual spares, not off the spread."""
        if maxwe_uaa_floor(emap, 0.1) < uaa_ceiling(emap.line_endurance, 0):
            return
        nothing = simulate_lifetime(emap, UniformAddressAttack(), NoSparing(), rng=seed)
        maxwe = simulate_lifetime(emap, UniformAddressAttack(), MaxWE(0.1), rng=seed)
        assert maxwe.normalized_lifetime >= nothing.normalized_lifetime - 1e-9

    def test_flat_map_with_outlier_breaks_dominance(self):
        """Why the property above is filtered, pinned so the engine's
        actual behaviour on degenerate maps is tracked: on a flat map with
        one strong outlier, no protection outlives Max-WE because the
        spares are as weak as the lines they replace.  The filter rejects
        it."""
        values = np.full(20, 10.0)
        values[-1] = 177.0
        emap = EnduranceMap(values, regions=20)
        assert maxwe_uaa_floor(emap, 0.1) < uaa_ceiling(emap.line_endurance, 0)
        nothing = simulate_lifetime(emap, UniformAddressAttack(), NoSparing(), rng=0)
        maxwe = simulate_lifetime(emap, UniformAddressAttack(), MaxWE(0.1), rng=0)
        assert maxwe.normalized_lifetime < nothing.normalized_lifetime

    def test_no_variation_regression_is_exactly_the_capacity_cost(self):
        """At q = 1 Max-WE's only effect is giving up the spare capacity:
        lifetime is exactly (1 - p) of the unprotected 100%."""
        emap = EnduranceMap(np.full(40, 100.0), regions=40)
        nothing = simulate_lifetime(emap, UniformAddressAttack(), NoSparing(), rng=1)
        maxwe = simulate_lifetime(emap, UniformAddressAttack(), MaxWE(0.1), rng=1)
        assert nothing.normalized_lifetime == pytest.approx(1.0)
        assert maxwe.normalized_lifetime == pytest.approx(0.9, rel=1e-6)


class TestDeterminism:
    @given(random_maps(), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_equal_seeds_equal_runs(self, emap, seed):
        a = simulate_lifetime(
            emap,
            BirthdayParadoxAttack(),
            PS.average_case(0.1),
            wearleveler=make_scheme("tlsr", lines_per_region=1),
            rng=seed,
        )
        b = simulate_lifetime(
            emap,
            BirthdayParadoxAttack(),
            PS.average_case(0.1),
            wearleveler=make_scheme("tlsr", lines_per_region=1),
            rng=seed,
        )
        assert a.writes_served == b.writes_served
        assert a.deaths == b.deaths
