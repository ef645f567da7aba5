"""The batched kernel's one epoch selector against the scan it replaced.

:func:`~repro.sim.ensemble._select_epoch` picks each vectorized epoch
from death-time values.  The kernel used to pick epochs that involved
removed or non-prone slots (infinite death times) or an unknown floor
with a separate argpartition / trim / lexsort / safe-prefix scan over
the full arrays.  That scan is kept here as the oracle: on full rows
the selector must return exactly its epoch, and on compact work rows
either that same epoch or ``None`` (the caller then retries on the full
row), the latter only where the full row's epoch may involve a slot the
compact row excludes.  ``BATCH_LIMIT`` is patched small so rows
straddle it.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import lifetime
from repro.sim.ensemble import _select_epoch


def scan_epoch(current_death, floor, w_max):
    """The full-array scan the kernel ran before the value partition
    became its only selector, returning ``(slots, times)``."""
    batch_limit = lifetime.BATCH_LIMIT
    candidates = np.flatnonzero(np.isfinite(current_death))
    if candidates.size == 0:
        return np.empty(0, dtype=np.intp), np.empty(0)
    # Next BATCH_LIMIT deaths, in exact heap order (time, slot).
    if candidates.size > batch_limit:
        nearest = np.argpartition(current_death[candidates], batch_limit - 1)[
            :batch_limit
        ]
        keys = candidates[nearest]
        times = current_death[keys]
        # argpartition breaks time ties arbitrarily at the cut, so trim
        # to a *complete* time-prefix: everything strictly before the
        # selection's max time, or -- when the whole selection ties --
        # the full tie class.
        t_max = times.max()
        strictly_before = times < t_max
        if strictly_before.any():
            keys = keys[strictly_before]
            times = times[strictly_before]
        else:
            keys = candidates[current_death[candidates] == t_max]
            times = current_death[keys]
    else:
        keys = candidates
        times = current_death[keys]
    order = np.lexsort((keys, times))
    keys = keys[order]
    times = times[order]
    # Chronologically safe prefix: no replacement made inside the window
    # can schedule its next death back into it.
    if floor is None:
        prefix = 1
    elif math.isinf(floor):
        prefix = keys.size
    else:
        bound = times[0] + floor / w_max
        prefix = max(int(np.searchsorted(times, bound, side="left")), 1)
    return keys[:prefix], times[:prefix]


def compact(row, limit):
    """The kernel's compact work row over ``row``: every slot strictly
    below the ``(limit + 1)``-th smallest time, and that time as the
    sentinel.  ``None`` where the kernel would keep the full row."""
    if limit >= row.size:
        return None
    threshold = float(np.partition(row, limit)[limit])
    work = np.flatnonzero(row < threshold)
    if work.size <= lifetime.BATCH_LIMIT:
        return None
    return work, threshold


def may_decline(row, floor, w_max, sentinel):
    """Whether the full row's epoch may involve a slot at or above the
    sentinel, the only case where a compact row may decline: its first
    death reaches the sentinel, its cap does, or it is uncapped with a
    finite bound above the sentinel."""
    batch_limit = lifetime.BATCH_LIMIT
    finite = np.sort(row[np.isfinite(row)])
    if not finite.size or not finite[0] < sentinel:
        return True
    t_min = float(finite[0])
    bound = t_min if floor is None else t_min + floor / w_max
    capped = finite.size > batch_limit and (
        int(np.count_nonzero(finite < bound)) >= batch_limit
    )
    if capped:
        return not finite[batch_limit - 1] < sentinel
    return sentinel < bound < math.inf


def assert_epoch(got, want):
    assert got[0].dtype == np.intp
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tolist() == want[1].tolist()


# Few distinct times, so ties are everywhere; infinite entries stand for
# removed or non-prone slots.
death_times = st.one_of(
    st.integers(0, 6).map(float), st.just(math.inf)
)
rows = st.lists(death_times, min_size=0, max_size=24).map(
    lambda values: np.asarray(values, dtype=float)
)
floors = st.one_of(
    st.none(), st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0, math.inf])
)
w_maxes = st.sampled_from([0.5, 1.0, 3.0])
batch_limits = st.integers(1, 8)


@settings(max_examples=400, deadline=None)
@given(row=rows, floor=floors, w_max=w_maxes, batch_limit=batch_limits)
# The BATCH_LIMIT nearest deaths all tie: the epoch is the whole tie class.
@example(
    row=np.array([3.0, 1.0, 1.0, 1.0, 5.0]), floor=2.5, w_max=1.0, batch_limit=2
)
# A death exactly at the bound stays out of the epoch.
@example(row=np.array([1.0, 2.0, 3.0]), floor=1.0, w_max=1.0, batch_limit=8)
# Exactly BATCH_LIMIT finite deaths: nothing to trim.
@example(
    row=np.array([2.0, math.inf, 1.0, 2.0]), floor=math.inf, w_max=1.0, batch_limit=3
)
# No finite death: an empty epoch.
@example(row=np.array([math.inf, math.inf]), floor=1.0, w_max=1.0, batch_limit=1)
@example(row=np.empty(0), floor=None, w_max=1.0, batch_limit=1)
def test_full_rows_select_the_scan_epoch(row, floor, w_max, batch_limit):
    with mock.patch.object(lifetime, "BATCH_LIMIT", batch_limit):
        want = scan_epoch(row, floor, w_max)
        got = _select_epoch(row, floor, w_max)
    assert got is not None
    assert_epoch(got, want)


@settings(max_examples=400, deadline=None)
@given(
    row=rows,
    floor=floors,
    w_max=w_maxes,
    batch_limit=batch_limits,
    extra=st.integers(0, 12),
    bumps=st.lists(st.tuples(st.integers(0, 30), st.integers(1, 9)), max_size=8),
)
# Bumped past the sentinel, compact times would cap the epoch wrongly.
@example(
    row=np.array([1.0] * 6 + [3.0] * 6),
    floor=math.inf,
    w_max=1.0,
    batch_limit=5,
    extra=1,
    bumps=[(3, 3), (4, 4), (5, 5)],
)
# Every compact time at the sentinel: an excluded slot may tie first.
@example(
    row=np.array([2.0, 2.0, 1.0, 1.0]),
    floor=None,
    w_max=1.0,
    batch_limit=1,
    extra=1,
    bumps=[(0, 1), (1, 1)],
)
# The bound passes the sentinel, but the capped epoch is all compact.
@example(
    row=np.array([0.0, 0.0, 1.0]),
    floor=1.0,
    w_max=0.5,
    batch_limit=1,
    extra=1,
    bumps=[],
)
def test_compact_rows_select_the_full_epoch_or_decline(
    row, floor, w_max, batch_limit, extra, bumps
):
    with mock.patch.object(lifetime, "BATCH_LIMIT", batch_limit):
        built = compact(row, batch_limit + extra)
        if built is None:
            return
        work, sentinel = built
        # Replacements push selected slots' times up, past the sentinel
        # too; the full row must see the same values.
        for key, amount in bumps:
            row[work[key % work.size]] += amount
        got = _select_epoch(row[work], floor, w_max, sentinel)
        if got is None:
            # No needless decline: only an epoch that may reach past
            # the compact row sends the kernel back to the full row.
            assert may_decline(row, floor, w_max, sentinel)
            return
        want = scan_epoch(row, floor, w_max)
    assert_epoch((work[got[0]], got[1]), want)


def test_compact_row_serves_the_epoch_while_the_bound_stays_below_the_sentinel():
    row = np.array([4.0, 1.0, 2.0, 9.0, 1.0, 3.0, 8.0, 7.0])
    with mock.patch.object(lifetime, "BATCH_LIMIT", 2):
        work, sentinel = compact(row, 5)
        got = _select_epoch(row[work], 1.5, 1.0, sentinel)
        assert got is not None
        assert_epoch((work[got[0]], got[1]), scan_epoch(row, 1.5, 1.0))
        # A bound past the sentinel still serves a capped epoch whose cap
        # lies below it: the two smallest times are both compact.
        assert 1.0 + 20.0 > sentinel
        got = _select_epoch(row[work], 20.0, 1.0, sentinel)
        assert got is not None
        assert_epoch((work[got[0]], got[1]), scan_epoch(row, 20.0, 1.0))


def test_compact_row_declines_an_uncapped_bound_past_the_sentinel():
    row = np.array([4.0, 1.0, 2.0, 9.0, 1.0, 3.0, 8.0, 7.0])
    with mock.patch.object(lifetime, "BATCH_LIMIT", 3):
        work, sentinel = compact(row, 5)
        assert work.tolist() == [0, 1, 2, 4, 5] and sentinel == 7.0
        # Replacements push all compact times but one past the bound.
        for key in (0, 2, 4, 5):
            row[key] = 30.0
        # Uncapped (one compact time below the bound 1 + 7 = 8), and the
        # full row's epoch holds the excluded slot 7 (time 7 < 8).
        want = scan_epoch(row, 7.0, 1.0)
        assert want[0].tolist() == [1, 7]
        assert _select_epoch(row[work], 7.0, 1.0, sentinel) is None

