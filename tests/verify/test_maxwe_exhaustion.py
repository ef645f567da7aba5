"""Pinned regression: MaxWE exhaustion under ``paranoia=full``.

A streaming single-target attack against ``max-we`` drives a region all
the way to spare exhaustion.  A retired spare line that died *in the
same batch* it was consumed used to be left in the ``_ACTIVE`` state,
so the full-paranoia invariant sweep saw an "active" line with zero
endurance and aborted an otherwise healthy run with an
:class:`InvariantViolation`.  The fix retires such lines in
:meth:`MaxWE.replace_batch` after the swr/rescue assignment settles.

Repro (pre-fix this raised; now it must complete cleanly)::

    python -m repro.cli simulate --attack repeated --sparing max-we \
        --paranoia full --regions 64 --lines-per-region 4 \
        --engine fluid-batched

Pinned for both engines; the guarded run must stay bit-identical to
the unguarded one (checks never mutate) and agree with the scalar
oracle.
"""

import numpy as np
import pytest

from repro.attacks.repeated import RepeatedAddressAttack
from repro.core.maxwe import MaxWE
from repro.endurance.emap import EnduranceMap
from repro.sim.lifetime import ENGINES, simulate_lifetime
from repro.sim.reference import exact_lifetime


def exhaustion_map(regions: int = 64, lines_per_region: int = 4) -> EnduranceMap:
    """Low-endurance map so the streaming attack exhausts region 0 fast."""
    rng = np.random.default_rng(19)
    cells = rng.uniform(50.0, 500.0, size=regions * lines_per_region)
    return EnduranceMap(cells, regions=regions)


class TestMaxWEExhaustionUnderFullParanoia:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_streaming_exhaustion_completes_cleanly(self, engine):
        """The pre-fix failure mode: InvariantViolation mid-exhaustion."""
        result = simulate_lifetime(
            exhaustion_map(),
            RepeatedAddressAttack(target=0),
            MaxWE(0.1, 0.9),
            rng=11,
            engine=engine,
            record_timeline=False,
            paranoia="full",
        )
        # The run must actually reach spare exhaustion, not fail early
        # for some unrelated reason -- otherwise the regression is not
        # being exercised at all.
        assert result.replacements > 0
        assert result.writes_served > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_guarded_exhaustion_is_bit_identical_to_unguarded(self, engine):
        results = {}
        for paranoia in ("off", "full"):
            results[paranoia] = simulate_lifetime(
                exhaustion_map(),
                RepeatedAddressAttack(target=0),
                MaxWE(0.1, 0.9),
                rng=11,
                engine=engine,
                record_timeline=False,
                paranoia=paranoia,
            )
        off, full = results["off"], results["full"]
        assert full.writes_served == off.writes_served
        assert full.deaths == off.deaths
        assert full.replacements == off.replacements
        assert full.failure_reason == off.failure_reason

    def test_guarded_exhaustion_matches_the_exact_oracle(self):
        # The scalar loop no longer runs guarded as an engine; the guarded
        # kernel run is checked against it instead.
        guarded = simulate_lifetime(
            exhaustion_map(),
            RepeatedAddressAttack(target=0),
            MaxWE(0.1, 0.9),
            rng=11,
            record_timeline=False,
            paranoia="full",
        )
        exact = exact_lifetime(
            exhaustion_map(),
            RepeatedAddressAttack(target=0),
            MaxWE(0.1, 0.9),
            rng=11,
            record_timeline=False,
        )
        assert (guarded.deaths, guarded.replacements, guarded.failure_reason) == (
            exact.deaths,
            exact.replacements,
            exact.failure_reason,
        )
        assert guarded.writes_served == pytest.approx(exact.writes_served, rel=1e-9)

    def test_exact_engine_name_is_rejected(self):
        with pytest.raises(ValueError, match="exact_lifetime"):
            simulate_lifetime(
                exhaustion_map(),
                RepeatedAddressAttack(target=0),
                MaxWE(0.1, 0.9),
                rng=11,
                engine="fluid-exact",
                paranoia="full",
            )
