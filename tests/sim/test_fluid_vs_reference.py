"""Cross-validation: the fluid engine against the exact reference simulator.

The fluid engine's one assumption is stationarity of the wear
distribution.  These tests run both engines on identical small devices
and require agreement -- tight under UAA (where the stationary
distribution is exact), looser under BPA with randomized wear-leveling
(where remap granularity adds genuine variance).  A grid runs every
sparing family under all three attack profiles with those per-attack
bounds.
"""

import pytest

from repro.attacks.bpa import BirthdayParadoxAttack
from repro.attacks.repeated import RepeatedAddressAttack
from repro.attacks.uaa import UniformAddressAttack
from repro.core.maxwe import MaxWE
from repro.endurance.linear import LinearEnduranceModel, linear_endurance_map
from repro.sim.lifetime import simulate_lifetime
from repro.sim.reference import ReferenceSimulator
from repro.sparing.none import NoSparing
from repro.sparing.pcd import PCD
from repro.sparing.ps import PS
from repro.wearlevel.pcms import PCMS
from repro.wearlevel.security_refresh import TLSR
from tests.sim.test_engine_equivalence import SCHEME_FACTORIES


def small_map(regions=40, lines_per_region=2, q=20.0, seed=3, e_low=200.0):
    model = LinearEnduranceModel.from_q(q, e_low=e_low)
    return linear_endurance_map(regions * lines_per_region, regions, model, rng=seed)


def reference_lifetime(emap, attack, sparing, wearleveler=None, seed=3):
    simulator = ReferenceSimulator(
        emap, attack, sparing, wearleveler, rng=seed, max_writes=10_000_000
    )
    return simulator.run()


class TestUAAAgreement:
    def test_no_protection(self):
        emap = small_map()
        fluid = simulate_lifetime(emap, UniformAddressAttack(), NoSparing(), rng=3)
        exact = reference_lifetime(
            emap, UniformAddressAttack(random_data=False), NoSparing()
        )
        assert exact.normalized_lifetime == pytest.approx(
            fluid.normalized_lifetime, rel=0.02
        )

    def test_maxwe(self):
        emap = small_map()
        fluid = simulate_lifetime(emap, UniformAddressAttack(), MaxWE(0.1), rng=3)
        exact = reference_lifetime(
            emap, UniformAddressAttack(random_data=False), MaxWE(0.1)
        )
        assert exact.normalized_lifetime == pytest.approx(
            fluid.normalized_lifetime, rel=0.05
        )

    def test_ps_worst(self):
        emap = small_map()
        fluid = simulate_lifetime(
            emap, UniformAddressAttack(), PS.worst_case(0.1), rng=3
        )
        exact = reference_lifetime(
            emap, UniformAddressAttack(random_data=False), PS.worst_case(0.1)
        )
        assert exact.normalized_lifetime == pytest.approx(
            fluid.normalized_lifetime, rel=0.05
        )

    def test_pcd_degraded_mode(self):
        emap = small_map()
        fluid = simulate_lifetime(emap, UniformAddressAttack(), PCD(0.1), rng=3)
        exact = reference_lifetime(
            emap, UniformAddressAttack(random_data=False), PCD(0.1)
        )
        assert exact.normalized_lifetime == pytest.approx(
            fluid.normalized_lifetime, rel=0.06
        )

    def test_death_and_replacement_counts_match(self):
        emap = small_map()
        fluid = simulate_lifetime(emap, UniformAddressAttack(), MaxWE(0.1), rng=3)
        exact = reference_lifetime(
            emap, UniformAddressAttack(random_data=False), MaxWE(0.1)
        )
        assert exact.replacements == fluid.replacements


class TestRandomizedWLAgreement:
    """BPA through real randomizing mechanisms vs the stationary model."""

    def test_tlsr_under_bpa(self):
        emap = small_map(regions=30, lines_per_region=2, q=10.0, e_low=400.0)
        fluid = simulate_lifetime(
            emap,
            BirthdayParadoxAttack(burst_length=32),
            MaxWE(0.1),
            wearleveler=TLSR(lines_per_region=1, refresh_interval=4),
            rng=3,
        )
        exact = reference_lifetime(
            emap,
            BirthdayParadoxAttack(burst_length=32),
            MaxWE(0.1),
            wearleveler=TLSR(lines_per_region=2, refresh_interval=4),
        )
        # Randomized mechanisms at tiny scale carry real variance; require
        # same ballpark (the orderings tests pin the science).
        assert exact.normalized_lifetime == pytest.approx(
            fluid.normalized_lifetime, rel=0.4
        )

    def test_pcms_under_bpa(self):
        emap = small_map(regions=30, lines_per_region=2, q=10.0, e_low=400.0)
        fluid = simulate_lifetime(
            emap,
            BirthdayParadoxAttack(burst_length=32),
            MaxWE(0.1),
            wearleveler=PCMS(lines_per_region=1, swap_interval=16),
            rng=3,
        )
        exact = reference_lifetime(
            emap,
            BirthdayParadoxAttack(burst_length=32),
            MaxWE(0.1),
            wearleveler=PCMS(lines_per_region=2, swap_interval=16),
        )
        assert exact.normalized_lifetime == pytest.approx(
            fluid.normalized_lifetime, rel=0.4
        )


#: Relative agreement bound per attack, the file's bounds: UAA's Max-WE
#: bound, and the randomized-wear-leveling bound for both concentrated
#: attacks (streaming is a BPA burst that never moves on).
GRID_RTOL = {"uaa": 0.05, "bpa": 0.4, "streaming": 0.4}

#: Pairs measured outside their attack's bound (reference vs fluid
#: normalized lifetime).  Strict xfails: a pair that comes into
#: agreement fails here and must move into the passing grid.
KNOWN_GAPS = {
    ("max-we", "streaming"): "reference 0.1402 vs fluid 0.3122 (-55.1%)",
    # The reference runs capacity-degrading schemes behind the identity
    # wear-leveler only, where the removed hot slot's address folds onto
    # a live slot; the fluid profile keeps the wear on the removed slot,
    # so its run ends at the first removal.
    ("pcd", "bpa"): "identity WL: reference 0.2867 vs fluid 0.01149 (+2395%)",
    ("pcd", "streaming"): "identity WL: reference 0.07954 vs fluid 0.01149 (+592%)",
}

GRID = [
    pytest.param(
        scheme,
        attack,
        marks=[pytest.mark.xfail(strict=True, reason=KNOWN_GAPS[scheme, attack])]
        if (scheme, attack) in KNOWN_GAPS
        else [],
    )
    for attack in sorted(GRID_RTOL)
    for scheme in sorted(SCHEME_FACTORIES)
]


class TestSchemeAttackGrid:
    """Every sparing family x {UAA, BPA, streaming} against the reference.

    UAA runs on the UAA device without wear-leveling; the concentrated
    attacks run on the BPA device behind TLSR, except PCD, which the
    reference supports behind the identity wear-leveler only.
    """

    @pytest.mark.parametrize("scheme_name,attack_name", GRID)
    def test_fluid_agrees_with_reference(self, scheme_name, attack_name):
        fluid_wl = reference_wl = None
        if attack_name == "uaa":
            emap = small_map()
            fluid_attack = UniformAddressAttack()
            reference_attack = UniformAddressAttack(random_data=False)
        else:
            emap = small_map(regions=30, lines_per_region=2, q=10.0, e_low=400.0)
            if attack_name == "bpa":
                fluid_attack = reference_attack = BirthdayParadoxAttack(burst_length=32)
            else:
                fluid_attack = reference_attack = RepeatedAddressAttack(target=0)
            if scheme_name != "pcd":
                fluid_wl = TLSR(lines_per_region=1, refresh_interval=4)
                reference_wl = TLSR(lines_per_region=2, refresh_interval=4)
        fluid = simulate_lifetime(
            emap,
            fluid_attack,
            SCHEME_FACTORIES[scheme_name](),
            wearleveler=fluid_wl,
            rng=3,
        )
        exact = reference_lifetime(
            emap, reference_attack, SCHEME_FACTORIES[scheme_name](), reference_wl
        )
        assert exact.normalized_lifetime == pytest.approx(
            fluid.normalized_lifetime, rel=GRID_RTOL[attack_name]
        )


class TestReferenceGuards:
    def test_write_guard_terminates(self):
        emap = small_map()
        simulator = ReferenceSimulator(
            emap,
            UniformAddressAttack(random_data=False),
            MaxWE(0.5, 0.5),
            max_writes=1000,
        )
        result = simulator.run()
        assert "guard" in result.failure_reason
        assert result.writes_served <= 1000

    def test_invalid_guard(self):
        with pytest.raises(ValueError):
            ReferenceSimulator(
                small_map(), UniformAddressAttack(), NoSparing(), max_writes=0
            )
