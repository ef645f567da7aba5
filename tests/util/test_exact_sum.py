"""exact_sum must return math.fsum's bits on every tier, errors included."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.exactsum import exact_sum

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=5e-324, max_value=1e300)
#: Every |x| below the smallest normal float: zeros and subnormals.
subnormal = st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308)
#: Floats whose binary exponent sits near either end of the range.
extreme = st.builds(
    lambda mantissa, exponent: math.ldexp(mantissa, exponent),
    st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.one_of(st.integers(-1074, -1000), st.integers(1000, 1024)),
)
lengths = st.integers(min_value=1, max_value=300)


def outcome(function, values):
    """The bits a sum returns, or the exception type it raises."""
    try:
        return function(values).hex()
    except (OverflowError, ValueError) as error:
        return type(error)


def assert_matches_fsum(values):
    values = np.asarray(values, dtype=float)
    lo, hi = (values.min(), values.max()) if values.size else (0.0, 0.0)
    assert outcome(lambda v: exact_sum(v, lo, hi), values) == outcome(
        math.fsum, values
    )


class TestMatchesFsum:
    @given(value=st.one_of(finite, subnormal, extreme), length=lengths)
    def test_constant(self, value, length):
        assert_matches_fsum(np.full(length, value))

    @given(
        first=st.one_of(finite, subnormal, extreme),
        second=st.one_of(finite, subnormal, extreme),
        picks=st.lists(st.booleans(), min_size=1, max_size=300),
    )
    def test_two_valued(self, first, second, picks):
        assert_matches_fsum(np.where(picks, first, second))

    @given(st.lists(st.one_of(finite, subnormal, extreme), min_size=1, max_size=300, unique=True))
    def test_all_distinct(self, values):
        assert_matches_fsum(values)

    @given(st.lists(st.one_of(st.just(0.0), st.just(-0.0), positive), min_size=1, max_size=300))
    def test_zeros_mixed_with_positive_values(self, values):
        assert_matches_fsum(values)

    @given(st.lists(subnormal, min_size=1, max_size=300))
    def test_subnormals(self, values):
        assert_matches_fsum(values)

    @given(st.lists(extreme, min_size=1, max_size=300))
    def test_exponents_near_both_ends(self, values):
        assert_matches_fsum(values)

    @given(st.one_of(finite, subnormal, extreme))
    def test_length_one(self, value):
        assert_matches_fsum([value])

    @given(
        st.lists(finite, max_size=50),
        st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), min_size=1, max_size=3),
    )
    @settings(max_examples=50)
    def test_non_finite_behaves_like_fsum(self, values, specials):
        assert_matches_fsum(values + specials)

    def test_empty(self):
        assert exact_sum(np.empty(0), 0.0, 0.0).hex() == math.fsum([]).hex()

    def test_weight_shapes(self):
        """The three weight shapes the kernel sums: uniform, BPA, biased."""
        slots = 16_384
        uniform = np.full(slots, 1.0 / slots)
        bpa = np.full(slots, 0.1 / slots)
        bpa[77] += 0.9
        biased = np.random.default_rng(5).uniform(200.0, 4000.0, slots) ** 2
        for weights in (uniform, bpa, biased / biased.sum()):
            assert_matches_fsum(weights)


@pytest.mark.parametrize(
    "attack,wearleveler",
    [("uaa", None), ("bpa", None), ("bpa", "wawl")],
    ids=["uaa-constant", "bpa-two-valued", "bpa-wawl-bucketed"],
)
def test_solo_runs_never_call_fsum(monkeypatch, attack, wearleveler):
    """The fast tiers, not the fallback, seed every finite solo run."""
    from repro.attacks.bpa import BirthdayParadoxAttack
    from repro.attacks.uaa import UniformAddressAttack
    from repro.core.maxwe import MaxWE
    from repro.endurance.linear import LinearEnduranceModel, linear_endurance_map
    from repro.sim.lifetime import simulate_lifetime
    from repro.wearlevel.wawl import WAWL

    def forbidden(values):
        raise AssertionError("math.fsum called")

    monkeypatch.setattr(math, "fsum", forbidden)
    model = LinearEnduranceModel.from_q(20.0, e_low=200.0)
    emap = linear_endurance_map(512, 64, model, rng=5)
    result = simulate_lifetime(
        emap,
        UniformAddressAttack() if attack == "uaa" else BirthdayParadoxAttack(),
        MaxWE(0.1, 0.9),
        wearleveler=WAWL(lines_per_region=8) if wearleveler else None,
        rng=5,
        record_timeline=False,
    )
    assert result.deaths > 0 and result.normalized_lifetime > 0.0
