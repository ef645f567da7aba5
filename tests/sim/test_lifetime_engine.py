"""Tests for the fluid lifetime engine against closed-form anchors.

On a linear endurance map the fluid engine must land on the Eq. 4-8
predictions (up to region discretization); on a variation-free map it
must report a 100% normalized lifetime.  These anchors pin the engine's
virtual-time integration, replacement bookkeeping and capacity-shrink
handling independently of the reference simulator.
"""

import numpy as np
import pytest

from repro.analysis.lifetime import (
    maxwe_normalized,
    pcd_ps_normalized,
    ps_worst_normalized,
    uaa_fraction,
)
from repro.attacks.uaa import UniformAddressAttack
from repro.core.maxwe import MaxWE
from repro.endurance.generators import uniform_endurance_map
from repro.endurance.linear import LinearEnduranceModel, linear_endurance_map
from repro.sim.lifetime import simulate_lifetime
from repro.sim.reference import exact_lifetime
from repro.sparing.none import NoSparing
from repro.sparing.pcd import PCD
from repro.sparing.ps import PS


def linear_map(regions=512, lines_per_region=4, q=50.0, seed=11):
    model = LinearEnduranceModel.from_q(q, e_low=100.0)
    return linear_endurance_map(regions * lines_per_region, regions, model, rng=seed)


class TestAnalyticAnchors:
    def test_no_protection_matches_eq5(self):
        emap = linear_map()
        result = simulate_lifetime(emap, UniformAddressAttack(), NoSparing(), rng=1)
        assert result.normalized_lifetime == pytest.approx(uaa_fraction(50.0), rel=0.02)

    def test_maxwe_matches_eq6_regime(self):
        emap = linear_map()
        result = simulate_lifetime(emap, UniformAddressAttack(), MaxWE(0.1, 0.9), rng=1)
        assert result.normalized_lifetime == pytest.approx(
            maxwe_normalized(0.1, 50.0), rel=0.05
        )

    def test_pcd_matches_eq7(self):
        emap = linear_map()
        result = simulate_lifetime(emap, UniformAddressAttack(), PCD(0.1), rng=1)
        assert result.normalized_lifetime == pytest.approx(
            pcd_ps_normalized(0.1, 50.0), rel=0.05
        )

    def test_ps_worst_matches_eq8(self):
        emap = linear_map()
        result = simulate_lifetime(
            emap, UniformAddressAttack(), PS.worst_case(0.1), rng=1
        )
        assert result.normalized_lifetime == pytest.approx(
            ps_worst_normalized(0.1, 50.0), rel=0.05
        )

    def test_uniform_endurance_is_ideal(self):
        """No variation: UAA is perfect leveling; lifetime = 100% of ideal."""
        emap = uniform_endurance_map(512, 64, endurance=1000.0)
        result = simulate_lifetime(emap, UniformAddressAttack(), NoSparing(), rng=1)
        assert result.normalized_lifetime == pytest.approx(1.0, rel=1e-6)


class TestBookkeeping:
    def test_no_protection_single_death(self):
        result = simulate_lifetime(
            linear_map(), UniformAddressAttack(), NoSparing(), rng=1
        )
        assert result.deaths == 1
        assert result.replacements == 0
        assert "no spares" in result.failure_reason

    def test_pcd_death_count_is_slack_plus_one(self):
        emap = linear_map(regions=100, lines_per_region=1)
        result = simulate_lifetime(emap, UniformAddressAttack(), PCD(0.1), rng=1)
        assert result.deaths == 11  # 10 removals tolerated, the 11th fails
        assert "capacity degraded" in result.failure_reason

    def test_ps_replacement_count_is_pool_size(self):
        emap = linear_map(regions=100, lines_per_region=1)
        result = simulate_lifetime(
            emap, UniformAddressAttack(), PS(0.1, selection="weakest"), rng=1
        )
        assert result.replacements == 10
        assert result.deaths >= 11

    def test_metadata_labels(self):
        result = simulate_lifetime(
            linear_map(), UniformAddressAttack(), MaxWE(0.1), rng=1
        )
        assert result.metadata["engine"] == "fluid-batched"
        assert "Max-WE" in str(result.metadata["sparing"])
        assert "UAA" in str(result.metadata["attack"])

    def test_deterministic_given_seed(self):
        emap = linear_map()
        a = simulate_lifetime(emap, UniformAddressAttack(), MaxWE(0.1), rng=5)
        b = simulate_lifetime(emap, UniformAddressAttack(), MaxWE(0.1), rng=5)
        assert a.writes_served == b.writes_served


class TestOrderings:
    """The paper's qualitative conclusions must hold on every endurance map."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_maxwe_beats_pcd_beats_nothing_under_uaa(self, seed):
        emap = linear_map(seed=seed)
        attack = UniformAddressAttack()
        nothing = simulate_lifetime(emap, attack, NoSparing(), rng=seed)
        pcd = simulate_lifetime(emap, attack, PCD(0.1), rng=seed)
        maxwe = simulate_lifetime(emap, attack, MaxWE(0.1), rng=seed)
        assert (
            maxwe.normalized_lifetime
            > pcd.normalized_lifetime
            > nothing.normalized_lifetime
        )

    def test_ordering_holds_on_lognormal_distribution(self):
        from repro.endurance.generators import lognormal_endurance_map

        emap = lognormal_endurance_map(2048, 512, sigma=1.0, rng=3)
        attack = UniformAddressAttack()
        nothing = simulate_lifetime(emap, attack, NoSparing(), rng=3)
        worst = simulate_lifetime(emap, attack, PS.worst_case(0.1), rng=3)
        maxwe = simulate_lifetime(emap, attack, MaxWE(0.1), rng=3)
        assert maxwe.normalized_lifetime > worst.normalized_lifetime
        assert worst.normalized_lifetime > nothing.normalized_lifetime

    def test_more_spares_more_lifetime(self):
        emap = linear_map()
        attack = UniformAddressAttack()
        lifetimes = [
            simulate_lifetime(emap, attack, MaxWE(p), rng=1).normalized_lifetime
            for p in (0.05, 0.1, 0.2, 0.3)
        ]
        assert lifetimes == sorted(lifetimes)


class TestAccumulationAccuracy:
    """Float-accuracy regressions for the served-writes integral.

    The integral historically accumulated with naive addition, so a flat
    map whose exact answer is an integer drifted by ~1 ulp per event
    (e.g. 200.00000000000006 for a 20x10.0 device).  The scalar oracle
    (``fluid-exact``) now compensates the sum (Kahan) and it and the
    kernel both seed the active weight
    with the exact (correctly rounded) sum, the same bits as math.fsum
    (constant, two-valued or bucketed tier of repro.util.exactsum), so
    these cases are exact.
    """

    @pytest.mark.parametrize("engine", ["fluid-exact", "fluid-batched"])
    @pytest.mark.parametrize("lines", [20, 33, 64])
    def test_flat_unprotected_device_serves_exactly_its_endurance(
        self, lines, engine
    ):
        from repro.endurance.emap import EnduranceMap

        emap = EnduranceMap(np.full(lines, 10.0), regions=lines)
        run = exact_lifetime if engine == "fluid-exact" else simulate_lifetime
        result = run(emap, UniformAddressAttack(), NoSparing(), rng=0)
        assert result.writes_served == 10.0 * lines

    def test_accounting_tolerance_scales_with_device_and_events(self):
        from repro.sim.lifetime import accounting_tolerance

        assert accounting_tolerance(0.0, 0) > 0.0
        assert accounting_tolerance(1e6, 64) > accounting_tolerance(1e3, 64)
        assert accounting_tolerance(1e3, 10_000) > accounting_tolerance(1e3, 64)
        # Tight enough to catch a quarter-endurance corruption, loose
        # enough for legitimate accumulation noise.
        assert accounting_tolerance(1e6, 10_000) < 1.0
