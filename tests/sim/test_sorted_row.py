"""The kernel's sorted compact row against the value partition.

On compact work rows the kernel selects each epoch through
:class:`~repro.sim.ensemble._SortedRow`: the row is sorted once by
``(time, key)`` and every selection reads its head, the times
re-inserted for the keys it served, and nothing else.  The oracle is
:func:`~repro.sim.ensemble._select_epoch` on a plain array of the same
current times (the partition every full row still uses): each epoch,
decline included, must be exactly its epoch.  Between selections the
test plays the kernel's part, storing a new time for every served key
-- equal to the old one, past the rest of the row, or infinite -- so
re-inserted times land below the next head, tie with it, or cap the
epoch.  ``BATCH_LIMIT`` is patched small so rows straddle it.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import lifetime
from repro.sim.ensemble import _SortedRow, _select_epoch


def assert_same(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got[0].dtype == np.intp
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tolist() == want[1].tolist()


def replay(row, floor, w_max, sentinel, bumps, batch_limit):
    """Select epochs from a sorted row and from the plain array side by
    side until one ends; returns the number of epochs compared."""
    times = np.asarray(row, dtype=float)
    bumps = list(bumps)
    with mock.patch.object(lifetime, "BATCH_LIMIT", batch_limit):
        sorted_row = _SortedRow(times)
        epochs = 0
        while True:
            want = _select_epoch(times.copy(), floor, w_max, sentinel)
            got = _select_epoch(sorted_row, floor, w_max, sentinel)
            assert_same(got, want)
            if got is None or not got[0].size or epochs > 40:
                return epochs
            epochs += 1
            for key, time in zip(got[0].tolist(), got[1].tolist()):
                bump = bumps.pop(0) if bumps else 3.0
                times[key] = time + bump


# Few distinct times, so ties are everywhere.
death_times = st.integers(0, 6).map(float)
rows = st.lists(death_times, min_size=0, max_size=24)
floors = st.one_of(
    st.none(), st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0, math.inf])
)
w_maxes = st.sampled_from([0.5, 1.0, 3.0])
sentinels = st.sampled_from([math.inf, math.inf, 3.0, 5.0, 7.0, 9.0])
# Re-insertions: the same time (ties the head or sits below it), a
# little later, far later, or never again (a failed slot).
bump_lists = st.lists(
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 4.0, 40.0, math.inf]), max_size=60
)


@settings(max_examples=500, deadline=None)
@given(
    row=rows,
    floor=floors,
    w_max=w_maxes,
    sentinel=sentinels,
    bumps=bump_lists,
    batch_limit=st.integers(1, 8),
)
# The BATCH_LIMIT smallest all tie, across the initial and the
# re-inserted times: the epoch is the whole tie class.
@example(
    row=[1.0, 1.0, 2.0, 2.0, 2.0, 5.0],
    floor=math.inf,
    w_max=1.0,
    sentinel=math.inf,
    bumps=[1.0, 1.0],
    batch_limit=3,
)
# A re-inserted time below the next head, with a smaller key.
@example(
    row=[0.0, 3.0, 4.0, 6.0],
    floor=1.0,
    w_max=1.0,
    sentinel=math.inf,
    bumps=[0.5],
    batch_limit=2,
)
# Re-inserted times pass the sentinel: the cap reaches it, so decline.
@example(
    row=[1.0, 1.0, 2.0, 2.0],
    floor=math.inf,
    w_max=1.0,
    sentinel=3.0,
    bumps=[4.0, 4.0],
    batch_limit=2,
)
# Re-inserted times go infinite until no more than BATCH_LIMIT stay
# finite: the epoch is then every finite time, uncapped.
@example(
    row=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
    floor=math.inf,
    w_max=1.0,
    sentinel=math.inf,
    bumps=[math.inf] * 4,
    batch_limit=3,
)
def test_sorted_row_selects_the_partition_epochs(
    row, floor, w_max, sentinel, bumps, batch_limit
):
    replay(row, floor, w_max, sentinel, bumps, batch_limit)


def test_a_tie_class_past_the_cap_is_taken_whole():
    # Three slots tie at 1.0 ahead of a cap of two; the re-inserted
    # slots come back at 2.0 and tie with the initial ones there.
    epochs = replay(
        [1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 9.0],
        math.inf,
        1.0,
        math.inf,
        [1.0, 1.0, 1.0],
        2,
    )
    assert epochs >= 2


def test_re_inserted_times_below_the_head_are_served_first():
    times = np.array([0.0, 5.0, 6.0, 7.0, 8.0, 9.0])
    with mock.patch.object(lifetime, "BATCH_LIMIT", 2):
        row = _SortedRow(times)
        keys, _ = _select_epoch(row, 1.0, 1.0, math.inf)
        assert keys.tolist() == [0]
        times[0] = 2.0
        keys, got = _select_epoch(row, 1.0, 1.0, math.inf)
        assert keys.tolist() == [0] and got.tolist() == [2.0]


def test_a_decline_matches_the_partition():
    # Every compact time is at the sentinel after one epoch.
    times = np.array([1.0, 1.0, 2.0])
    with mock.patch.object(lifetime, "BATCH_LIMIT", 1):
        row = _SortedRow(times)
        keys, _ = _select_epoch(row, None, 1.0, 2.0)
        times[keys] = 2.0
        keys, _ = _select_epoch(row, None, 1.0, 2.0)
        times[keys] = 2.0
        assert _select_epoch(times.copy(), None, 1.0, 2.0) is None
        assert _select_epoch(row, None, 1.0, 2.0) is None


def test_reads_grow_with_the_epochs_not_the_row():
    # A long row whose epochs each take BATCH_LIMIT deaths and re-insert
    # them past the rest: selection reads the sort and then O(epoch).
    rng = np.random.default_rng(7)
    times = np.sort(rng.integers(0, 500, size=20_000).astype(float))
    with mock.patch.object(lifetime, "BATCH_LIMIT", 64):
        row = _SortedRow(times)
        served = 0
        for _ in range(50):
            keys, got = _select_epoch(row, math.inf, 1.0, math.inf)
            served += keys.size
            times[keys] = got + 1000.0
    assert row.reads <= times.size + 4 * served
