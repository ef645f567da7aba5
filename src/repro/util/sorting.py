"""Exact-but-cheap sorting helpers for the hot simulation kernels."""

from __future__ import annotations

import numpy as np


def stable_value_argsort(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` at introsort cost.

    An unstable argsort permutes equal values arbitrarily but agrees with
    the stable one everywhere else, so sort unstably first and pay the
    ~3x slower mergesort only when the sorted result actually contains a
    tie -- which continuous endurance draws and the death times derived
    from them essentially never do.  Callers must pass NaN-free values:
    ``NaN != NaN`` hides NaN runs from the tie scan.
    """
    order = np.argsort(values)
    if values.size > 1:
        sorted_values = values[order]
        if bool((sorted_values[1:] == sorted_values[:-1]).any()):
            return np.argsort(values, kind="stable")
    return order


def stable_rank_prefix(values: np.ndarray, need: int) -> np.ndarray:
    """First ``need`` entries of ``np.argsort(values, kind="stable")``.

    A full stable argsort costs ``O(n log n)`` over all ``n`` values; an
    ``np.partition`` finds the boundary value in ``O(n)``, the prefix is
    gathered by value, and ties *at* the boundary are resolved exactly as
    the stable sort would -- ascending index -- because ``flatnonzero``
    emits indices in ascending order and the final stable sort of the
    gathered values keeps equal values in gather order.  ``values`` must
    be NaN-free.
    """
    n = values.size
    if need <= 0:
        return np.empty(0, dtype=np.intp)
    if need >= n:
        return np.argsort(values, kind="stable")
    boundary = np.partition(values, need - 1)[need - 1]
    head = np.flatnonzero(values < boundary)
    ties = np.flatnonzero(values == boundary)[: need - head.size]
    prefix = np.concatenate([head, ties])
    return prefix[stable_value_argsort(values[prefix])]


def stable_rank_suffix(values: np.ndarray, need: int) -> np.ndarray:
    """Last ``need`` entries of ``np.argsort(values, kind="stable")``.

    The twin of :func:`stable_rank_prefix`: the stable sort lists the
    boundary value's ties in ascending index, so the suffix holds the
    highest-indexed ones, ahead of every larger value.
    """
    n = values.size
    if need <= 0:
        return np.empty(0, dtype=np.intp)
    if need >= n:
        return np.argsort(values, kind="stable")
    boundary = np.partition(values, n - need)[n - need]
    tail = np.flatnonzero(values > boundary)
    ties = np.flatnonzero(values == boundary)
    suffix = np.concatenate([ties[ties.size - (need - tail.size) :], tail])
    return suffix[stable_value_argsort(values[suffix])]
