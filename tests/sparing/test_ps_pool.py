"""PS's pool build against the sort-everything code it replaced.

:meth:`PS._build_backing` takes the weakest or strongest lines from the
ends of a stable argsort (a partition and a rank prefix or suffix), the
backing from a boolean mask and the random allocation order from an
array shuffle.  The oracle below is the earlier build kept verbatim: a
full ``lexsort``, a set of Python ints, ``setdiff1d`` and a shuffled
Python list.  Backing, pool order, pool floor and the generator state
after the build must all be identical, on tie-heavy maps too, for every
selection and allocation.
"""

import numpy as np
import pytest

from repro.endurance.emap import EnduranceMap
from repro.sim.config import ExperimentConfig
from repro.sparing.ps import ALLOCATIONS, PS, SELECTIONS
from repro.util.rng import derive_rng
from repro.util.sorting import stable_rank_prefix, stable_rank_suffix


def oracle_build(scheme, emap, seed):
    """The earlier ``_build_backing``/``_ordered_pool``, verbatim in
    effect; returns ``(backing, pool_lines, pool_floor, rng)``."""
    rng = derive_rng(seed, f"sparing-{scheme.name}")
    total = emap.lines
    spares = scheme.spare_lines(total)
    endurance = emap.line_endurance
    order = np.lexsort((np.arange(total), endurance))
    if scheme.selection == "weakest":
        pool = order[:spares]
    elif scheme.selection == "strongest":
        pool = order[total - spares :]
    else:
        pool = rng.choice(total, size=spares, replace=False)
    pool_set = set(int(line) for line in pool)
    pool_array = np.sort(np.asarray(pool, dtype=np.intp))
    backing = np.setdiff1d(
        np.arange(total, dtype=np.intp), pool_array, assume_unique=True
    )
    listed = list(pool_set)
    arr = np.asarray(listed, dtype=np.intp)
    if scheme.allocation == "strongest-first":
        lines = arr[np.argsort(-endurance[arr], kind="stable")]
    elif scheme.allocation == "weakest-first":
        lines = arr[np.argsort(endurance[arr], kind="stable")]
    else:
        shuffled = list(listed)
        rng.shuffle(shuffled)
        lines = np.asarray(shuffled, dtype=np.intp)
    if lines.size:
        floor = np.minimum.accumulate(endurance[lines][::-1])[::-1]
    else:
        floor = np.empty(0, dtype=float)
    return backing, lines, floor, rng


def tie_map(regions, lines_per_region, levels, seed):
    """A map whose lines take only ``levels`` distinct endurances."""
    rng = np.random.default_rng(seed)
    values = 1000.0 * (1 + rng.integers(0, levels, size=regions * lines_per_region))
    return EnduranceMap(values, regions)


MAPS = [
    pytest.param(
        lambda seed: ExperimentConfig(
            regions=regions, lines_per_region=lpr, seed=seed
        ).make_emap(),
        id=f"{regions}x{lpr}",
    )
    for regions, lpr in ((512, 2), (2048, 8), (64, 4), (30, 2))
] + [
    pytest.param(lambda seed: tie_map(256, 4, 5, seed), id="5-level-ties"),
    pytest.param(lambda seed: tie_map(64, 2, 1, seed), id="all-tied"),
]


@pytest.mark.parametrize("make_map", MAPS)
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("selection", SELECTIONS)
@pytest.mark.parametrize("allocation", ALLOCATIONS)
@pytest.mark.parametrize("p", [0.0, 0.01, 0.1, 0.5])
def test_pool_build_matches_the_sorting_oracle(make_map, seed, selection, allocation, p):
    emap = make_map(seed)
    scheme = PS(p, selection=selection, allocation=allocation)
    backing, lines, floor, rng = oracle_build(scheme, emap, seed)
    scheme.initialize(emap, seed)
    assert scheme._backing.dtype == backing.dtype
    assert scheme._backing.tolist() == backing.tolist()
    assert scheme._pool_lines.dtype == lines.dtype
    assert scheme._pool_lines.tolist() == lines.tolist()
    assert scheme._pool_floor.tolist() == floor.tolist()
    assert scheme._rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("levels", [1, 2, 7, 1000])
@pytest.mark.parametrize("size", [1, 2, 9, 64])
def test_rank_ends_are_the_stable_argsort_ends(levels, size):
    values = np.random.default_rng(levels * size).integers(0, levels, size).astype(float)
    full = np.argsort(values, kind="stable")
    for need in range(size + 2):
        assert stable_rank_prefix(values, need).tolist() == full[:need].tolist()
        want = full[size - need :] if need <= size else full
        assert stable_rank_suffix(values, need).tolist() == want.tolist()
