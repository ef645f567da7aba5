"""Differential test: the stacked Max-WE state's scalar ``replace`` vs ``MaxWE``.

Unguarded Max-WE runs keep their replacement bookkeeping in a
:class:`~repro.core.maxwe.MaxWEStackedState`, and the kernel's one-death
epochs decide through its scalar ``replace``.  That port drops the
RMT/LMT ledgers, so it is pinned here against the real scheme: the same
map, the same seeded sequence of deaths, and after every step the same
verdict, the same line, the same failure string, and the same
``replacement_extra_floor`` / ``replacement_capacity``.  The kernel's
death runs read the same chain through ``lookahead`` and settle it with
``commit_lookahead``; both are pinned against chains of ``replace``.
The allocation plan itself is pinned at the paper-scale width of 64
lines per region, where both sides reduce regions through
:meth:`EnduranceMap.region_endurance`.
"""

import numpy as np
import pytest

from repro.core.maxwe import MaxWE, MaxWEStackedState
from repro.endurance.emap import EnduranceMap
from repro.sparing.base import FailDevice, ReplaceWith

REGIONS = 40
LINES_PER_REGION = 4


def endurance_map(seed: int) -> EnduranceMap:
    rng = np.random.default_rng(seed)
    values = rng.uniform(100.0, 1000.0, size=REGIONS * LINES_PER_REGION)
    return EnduranceMap(values, regions=REGIONS)


def replay(seed: int, fallback: bool):
    """Kill slots from a small seeded hot set until the device fails.

    Repeated deaths of the same few slots walk every branch: first
    deaths of RWR lines fail over to their SWR line, first deaths
    elsewhere take a pool line, a rescued slot's next death re-rescues,
    a failed-over slot's next death falls back to the pool (or fails the
    device in strict mode), and the pool eventually runs dry.  Returns
    the kinds of deaths seen.
    """
    emap = endurance_map(seed)
    reference = MaxWE(0.2, 0.5, rwr_fallback_to_lmt=fallback)
    reference.initialize(emap, rng=seed)
    stacked = MaxWEStackedState(MaxWE(0.2, 0.5, rwr_fallback_to_lmt=fallback), emap)

    backing = reference.initial_backing
    np.testing.assert_array_equal(stacked.backing(), backing)
    per = emap.lines_per_region
    rwr_regions = set(reference.plan.rwr_regions.tolist())
    rwr_lines = len(rwr_regions) * per

    def capacity() -> int:
        # RWR lines still awaiting their failover plus unallocated pool lines.
        return rwr_lines - reference.rmt.worn_count() + reference.pool_remaining

    rng = np.random.default_rng(seed)
    rwr_slots = [s for s in range(backing.size) if backing[s] // per in rwr_regions]
    other_slots = [s for s in range(backing.size) if backing[s] // per not in rwr_regions]
    hot = rng.choice(rwr_slots, 4, replace=False).tolist() + rng.choice(
        other_slots, 4, replace=False
    ).tolist()
    history = {slot: "original" for slot in hot}

    seen = set()
    for _ in range(10 * backing.size):
        slot = int(rng.choice(hot))
        dead_line = int(backing[slot])
        before = history[slot]
        want = reference.replace(slot, dead_line)
        got = stacked.replace(slot, dead_line)
        assert got == want, (slot, dead_line, before)
        assert stacked.replacement_extra_floor() == reference.replacement_extra_floor()
        assert stacked.replacement_capacity() == capacity()
        if isinstance(want, FailDevice):
            seen.add(("fail", want.reason.split()[0], before))
            return seen
        assert isinstance(want, ReplaceWith)
        if before == "original" and dead_line // per in rwr_regions:
            seen.add("swr-failover")
            history[slot] = "swr"
        else:
            seen.add({"original": "pool-rescue", "lmt": "re-rescue", "swr": "swr-to-pool"}[before])
            history[slot] = "lmt"
        backing[slot] = want.line
    raise AssertionError("the device never failed")


@pytest.mark.parametrize("fallback", (True, False))
def test_scalar_replace_matches_maxwe(fallback):
    seen = set()
    for seed in range(12):
        seen |= replay(seed, fallback)
    assert {"swr-failover", "pool-rescue", "re-rescue"} <= seen
    if fallback:
        assert "swr-to-pool" in seen
        assert ("fail", "additional", "lmt") in seen or ("fail", "additional", "original") in seen
    else:
        assert "swr-to-pool" not in seen
        assert ("fail", "SWR", "swr") in seen


def chain(state, slot, dead_line, deaths):
    """Decide ``deaths`` successive deaths of ``slot`` through replace()."""
    lines, reason = [], None
    for _ in range(deaths):
        outcome = state.replace(slot, dead_line)
        if isinstance(outcome, FailDevice):
            reason = outcome.reason
            break
        lines.append(outcome.line)
        dead_line = outcome.line
    return lines, reason


@pytest.mark.parametrize("fallback", (True, False))
def test_lookahead_commit_matches_replace_chain(fallback):
    """A lookahead names the lines a chain of replace() calls hands out,
    and committing ``n`` of its deaths leaves the state ``n`` replace()
    calls leave: SWR hop, pool rescues and both failure kinds."""
    kinds = set()
    for seed in range(12):
        emap = endurance_map(seed)
        runs, steps = (
            MaxWEStackedState(MaxWE(0.2, 0.5, rwr_fallback_to_lmt=fallback), emap)
            for _ in range(2)
        )
        backing = runs.backing().copy()
        rng = np.random.default_rng(seed)
        hot = rng.choice(backing.size, 8, replace=False).tolist()
        while True:
            slot = int(rng.choice(hot))
            dead_line = int(backing[slot])
            was_original = runs._state[slot] == 0
            lines, reason = runs.lookahead(slot, dead_line, int(rng.integers(1, 6)))
            deaths = int(rng.integers(1, lines.size + (reason is not None) + 1))
            want_lines, want_reason = chain(steps, slot, dead_line, deaths)
            assert lines[: len(want_lines)].tolist() == want_lines
            if want_reason is not None:
                assert (len(want_lines), want_reason) == (lines.size, reason)
            runs.commit_lookahead(slot, dead_line, deaths)
            for name in ("_state", "_pool_pos", "_rwr_originals_left"):
                np.testing.assert_equal(getattr(runs, name), getattr(steps, name))
            if want_lines and was_original:
                kinds.add("first-death")
            if want_reason is not None:
                kinds.add(want_reason.split()[0])
                break
            backing[slot] = want_lines[-1]
    assert {"first-death", "SWR" if not fallback else "additional"} <= kinds


@pytest.mark.parametrize("metric", ("min", "max", "mean"))
@pytest.mark.parametrize("seed", range(3))
def test_stacked_plan_matches_maxwe_at_64_lines_per_region(metric, seed):
    """The stacked plan equals ``MaxWE.initialize``'s on a map with 64
    lines per region and many tied regions: the same backing, SWR/RWR
    pairing, working set, pool order and floors."""
    regions, per = 48, 64
    rng = np.random.default_rng(seed)
    # A few region levels and a few line multipliers: most regions tie
    # with others on their min and max, and break ties by region id.
    base = rng.choice([100.0, 200.0, 300.0], size=regions)
    values = np.repeat(base, per) * rng.choice([1.0, 1.5, 2.0], size=regions * per)
    emap = EnduranceMap(values, regions=regions)
    reference = MaxWE(0.25, 0.5, region_metric=metric)
    reference.initialize(emap, rng=seed)
    stacked = MaxWEStackedState(MaxWE(0.25, 0.5, region_metric=metric), emap)

    plan = reference.plan
    np.testing.assert_array_equal(stacked.backing(), reference.initial_backing)
    stacked_plan = stacked._plan
    paired = np.flatnonzero(stacked_plan.sra_lookup >= 0)
    np.testing.assert_array_equal(paired, np.sort(plan.rwr_regions))
    np.testing.assert_array_equal(stacked_plan.sra_lookup[plan.rwr_regions], plan.swr_regions)
    np.testing.assert_array_equal(stacked.backing()[::per] // per, plan.working_regions)
    np.testing.assert_array_equal(stacked_plan.pool_lines, reference._pool_lines)
    np.testing.assert_array_equal(stacked_plan.pool_floor, reference._pool_floor)
    swr_lines = (plan.swr_regions[:, None] * per + np.arange(per)).ravel()
    assert stacked_plan.swr_line_floor == emap.line_endurance[swr_lines].min()
    assert stacked.replacement_extra_floor() == reference.replacement_extra_floor()
