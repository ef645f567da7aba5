"""Unit tests for the incremental death-frontier index.

The frontier's contract with the engines is narrow but strict: pops
come out in exactly the batched kernel's ``lexsort((slot, time))``
order, stale entries invalidate by consulting the authoritative array,
and :meth:`~repro.sim.frontier.DeathFrontier.pop_epoch` either returns
*provably* the same epoch the vectorized selection would have built or
``None`` with its state fully restored.  These tests pin each clause
directly, without an engine in the loop.
"""

import math

import numpy as np
import pytest

from repro.sim.frontier import DeathFrontier


def drain(frontier):
    """Pop every valid entry, in order."""
    out = []
    while (entry := frontier.pop()) is not None:
        time, slot = entry
        out.append((time, slot))
        frontier._times[slot] = math.inf
    return out


class TestOrderAndStaleness:
    def test_pop_order_matches_lexsort(self):
        rng = np.random.default_rng(42)
        times = np.asarray(rng.integers(1, 12, size=64), dtype=float)
        order = np.lexsort((np.arange(times.size), times))
        expected = [(float(times[i]), int(i)) for i in order]
        frontier = DeathFrontier(times.copy())
        # drain() mutates the frontier's own array, not ours.
        frontier._times = times = times.copy()
        assert drain(frontier) == expected

    def test_time_ties_break_by_slot_id(self):
        times = np.array([5.0, 5.0, 5.0, 2.0, 5.0])
        frontier = DeathFrontier(times)
        assert frontier.pop() == (2.0, 3)
        times[3] = math.inf
        assert frontier.pop() == (5.0, 0)
        times[0] = math.inf
        assert frontier.pop() == (5.0, 1)

    def test_peek_skips_stale_entries_and_pops_nothing(self):
        times = np.array([1.0, 2.0, 3.0])
        frontier = DeathFrontier(times)
        times[0] = math.inf  # slot 0's entry goes stale
        assert frontier.peek() == (2.0, 1)
        assert frontier.peek() == (2.0, 1)
        assert frontier.pop() == (2.0, 1)
        times[1] = times[2] = math.inf
        assert frontier.peek() is None

    def test_peek_never_refreshes_a_drained_work_set(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        frontier = DeathFrontier(times, limit=1)
        assert frontier.sentinel == 2.0
        assert frontier.pop() == (1.0, 0)
        times[0] = math.inf
        # Slots 1-3 sit at or above the sentinel, outside the work set.
        assert frontier.peek() is None
        assert frontier.refreshes == 0

    def test_stale_entry_invalidated_by_array_mutation(self):
        times = np.array([1.0, 2.0, 3.0])
        frontier = DeathFrontier(times)
        # Slot 0's death moves later (a replacement): the indexed entry
        # is stale the moment the array changes.
        times[0] = 2.5
        frontier.push(0, 2.5)
        assert frontier.pop() == (2.0, 1)
        times[1] = math.inf
        assert frontier.pop() == (2.5, 0)

    def test_removed_slot_entry_invalidates_via_inf(self):
        times = np.array([1.0, 2.0])
        frontier = DeathFrontier(times)
        times[0] = math.inf  # slot removed, no push needed
        assert frontier.pop() == (2.0, 1)

    def test_alive_mask_hides_dead_slots(self):
        times = np.array([1.0, 2.0, 3.0])
        alive = np.array([True, False, True])
        frontier = DeathFrontier(times, alive=alive)
        assert frontier.pop() == (1.0, 0)
        times[0] = math.inf
        assert frontier.pop() == (3.0, 2)

    def test_alive_mask_rejected_when_bounded(self):
        with pytest.raises(ValueError):
            DeathFrontier(np.ones(8), limit=4, alive=np.ones(8, dtype=bool))


class TestBoundedWorkSet:
    def test_sentinel_excludes_only_later_times(self):
        times = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        frontier = DeathFrontier(times, limit=3)
        assert frontier.sentinel == 4.0
        assert len(frontier) == 3

    def test_refresh_on_drain_is_complete(self):
        rng = np.random.default_rng(7)
        times = rng.uniform(1.0, 100.0, size=200)
        expected = [
            (float(times[i]), int(i))
            for i in np.lexsort((np.arange(times.size), times))
        ]
        frontier = DeathFrontier(times.copy(), limit=16)
        frontier._times = times = frontier._times.copy()
        assert drain(frontier) == expected
        assert frontier.refreshes > 0

    def test_push_at_or_past_sentinel_is_dropped(self):
        times = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        frontier = DeathFrontier(times, limit=3)
        size = len(frontier)
        frontier.push(5, frontier.sentinel)       # == sentinel: excluded
        frontier.push(5, frontier.sentinel + 1.0)  # past: excluded
        assert len(frontier) == size
        frontier.push(5, frontier.sentinel - 3.9)  # below: indexed
        assert len(frontier) == size + 1

    def test_compaction_on_cap_overflow(self):
        times = np.linspace(1.0, 10.0, 10)
        frontier = DeathFrontier(times, cap=12)
        for _ in range(5):
            times[0] += 0.001
            frontier.push(0, times[0])
        assert frontier.compactions >= 1
        assert frontier.pop() == (float(times[0]), 0)

    def test_degenerate_tie_class(self):
        times = np.full(32, 7.0)
        frontier = DeathFrontier(times, limit=4)
        assert frontier.degenerate
        assert frontier.pop_epoch(1.0, 1.0, cap=8) is None
        with pytest.raises(RuntimeError):
            frontier.pop()


class TestPopEpoch:
    def test_matches_vectorized_selection(self):
        """pop_epoch == the batched kernel's chronological safe prefix."""
        rng = np.random.default_rng(3)
        times = np.asarray(rng.integers(1, 40, size=120), dtype=float)
        floor, w_max = 6.0, 2.0
        frontier = DeathFrontier(times.copy())
        frontier._times = times = frontier._times.copy()
        while True:
            epoch = frontier.pop_epoch(floor, w_max, cap=256)
            assert epoch is not None  # unbounded + big cap: never bails
            slots, popped = epoch
            if not slots:
                break
            # Reference: the vectorized selection over the live array,
            # with the popped entries conceptually still present.
            ref_times = times.copy()
            for s, t in zip(slots, popped):
                ref_times[s] = t
            finite = np.flatnonzero(np.isfinite(ref_times))
            order = finite[np.lexsort((finite, ref_times[finite]))]
            bound = ref_times[order[0]] + floor / w_max
            take = max(int(np.searchsorted(ref_times[order], bound, "left")), 1)
            assert slots == order[:take].tolist()
            assert popped == ref_times[order[:take]].tolist()
            times[np.asarray(slots)] = math.inf

    def test_floor_none_yields_single_deaths(self):
        times = np.array([3.0, 1.0, 2.0])
        frontier = DeathFrontier(times)
        assert frontier.pop_epoch(None, 1.0, cap=4) == ([1], [1.0])
        times[1] = math.inf
        assert frontier.pop_epoch(None, 1.0, cap=4) == ([2], [2.0])

    def test_exhausted_returns_empty(self):
        times = np.array([math.inf, math.inf])
        frontier = DeathFrontier(times)
        assert frontier.pop_epoch(1.0, 1.0, cap=4) == ([], [])

    def test_cap_bail_restores_state(self):
        """A regrown batch bails to the vectorized path -- and the
        frontier must look untouched afterwards (regrow-after-sequential)."""
        times = np.linspace(1.0, 2.0, 10)
        frontier = DeathFrontier(times)
        before = len(frontier)
        assert frontier.pop_epoch(100.0, 1.0, cap=4) is None
        assert len(frontier) == before
        # The restored frontier still pops in exact order.
        assert frontier.pop() == (1.0, 0)

    def test_bound_past_sentinel_bails(self):
        times = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        frontier = DeathFrontier(times, limit=3)  # sentinel = 4.0
        assert frontier.pop_epoch(10.0, 1.0, cap=5) is None
        assert frontier.pop() == (1.0, 0)

    def test_ceiling_bails_before_popping(self):
        times = np.array([5.0, 6.0])
        frontier = DeathFrontier(times)
        assert frontier.pop_epoch(0.5, 1.0, cap=4, ceiling=5.0) is None
        assert frontier.pop_epoch(0.5, 1.0, cap=4, ceiling=8.0) == ([0], [5.0])

    def test_counters_start_consistent(self):
        frontier = DeathFrontier(np.ones(4))
        assert (frontier.builds, frontier.refreshes, frontier.compactions) == (
            1,
            0,
            0,
        )
