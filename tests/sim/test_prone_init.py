"""Prone-only init against the dense init it shortcuts.

Under a pure concentrated attack without a wear-leveler one slot takes
every write, and :class:`~repro.wearlevel.none.NoWearLeveling` lists it
as the distribution's ``prone`` set.  The engine's init then reads the
weight extremes, the exact total and the death times at that slot
alone, and the kernel's compact rows start from it.  Each test compares
against the same distribution handed over dense (no ``prone``): the
per-trial arrays and scalars must be the same bits (with slots that
never wear, the full death-time array is left to the paths that read
it), and whole runs -- guarded ones and the oracle's too, timeline and
every ``sim.*`` counter and histogram included -- must serialize the
same.  A background share below 1 makes every slot prone, where neither
side lists a prone set.
"""

import json

import numpy as np
import pytest

from repro.attacks.bpa import BirthdayParadoxAttack
from repro.obs.metrics import MetricsRegistry
from repro.sim.config import ExperimentConfig
from repro.sim.ensemble import (
    EnsembleMember,
    _death_times,
    _init_trial,
    initialize_schemes,
)
from repro.sim.lifetime import simulate_lifetime
from repro.sim.reference import exact_lifetime
from repro.sim.runner import build_sparing
from repro.wearlevel.base import WearDistribution
from repro.wearlevel.none import NoWearLeveling


class DenseNone(NoWearLeveling):
    """The identity wear-leveler, its distribution handed over dense."""

    def wear_weights(self, profile):
        sparse = super().wear_weights(profile)
        return WearDistribution(np.array(sparse.weights), sparse.useful_fraction)


def _trial(emap, attack, scheme, wearleveler, seed):
    member = EnsembleMember(
        emap,
        attack,
        build_sparing(scheme, 0.1, 0.9),
        wearleveler,
        rng=seed,
    )
    state = initialize_schemes([member], stacked=True)
    return _init_trial(state, 0, member, [])


def _death(trial):
    if trial.current_death is not None:
        return trial.current_death.tolist()
    return _death_times(trial.backing.size, trial.prone, trial.prone_death).tolist()


def _same_trial(got, want):
    assert _death(got) == _death(want)
    assert got.weights.tolist() == want.weights.tolist()
    assert got.active_weight.hex() == want.active_weight.hex()
    assert got.w_max.hex() == want.w_max.hex()
    assert got.w_scalar == want.w_scalar
    assert got.eta == want.eta
    if want.prone is None:
        assert got.prone is None and got.prone_death is None
    else:
        assert got.prone.tolist() == want.prone.tolist()
        assert got.prone_death.tolist() == want.prone_death.tolist()
    assert got.describe == want.describe


@pytest.mark.parametrize("scheme", ["max-we", "ps", "pcd", "none"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("hot_fraction", [1.0, 0.7])
def test_prone_init_matches_the_dense_init(scheme, seed, hot_fraction):
    config = ExperimentConfig(regions=256, lines_per_region=4, seed=seed)
    emap = config.make_emap()
    attack = BirthdayParadoxAttack(hot_fraction=hot_fraction)
    got = _trial(emap, attack, scheme, NoWearLeveling(), seed)
    want = _trial(emap, attack, scheme, DenseNone(), seed)
    _same_trial(got, want)
    if hot_fraction == 1.0:
        # Some slots never wear: the full death times are left unbuilt.
        assert got.prone.size == 1 and got.w_scalar is None
        assert got.current_death is None
    else:
        assert got.prone is None and got.current_death is not None


def _run(emap, attack, scheme, wearleveler, seed, **options):
    metrics = MetricsRegistry()
    result = simulate_lifetime(
        emap,
        attack,
        build_sparing(scheme, 0.1, 0.9),
        wearleveler,
        rng=seed,
        metrics=metrics,
        **options,
    )
    snapshot = metrics.snapshot()
    return (
        json.dumps(result.to_dict(), sort_keys=True),
        snapshot["counters"],
        snapshot["histograms"],
    )


@pytest.mark.parametrize("scheme", ["max-we", "ps", "pcd"])
@pytest.mark.parametrize("hot_fraction", [1.0, 0.7])
@pytest.mark.parametrize("paranoia", ["off", "cheap"])
def test_prone_runs_match_the_dense_runs(scheme, hot_fraction, paranoia):
    config = ExperimentConfig(regions=2048, lines_per_region=8, seed=4)
    emap = config.make_emap()
    attack = BirthdayParadoxAttack(hot_fraction=hot_fraction)
    got = _run(emap, attack, scheme, NoWearLeveling(), 4, paranoia=paranoia)
    want = _run(emap, attack, scheme, DenseNone(), 4, paranoia=paranoia)
    assert got == want


@pytest.mark.parametrize("scheme", ["max-we", "pcd"])
def test_the_oracle_builds_the_death_times_it_reads(scheme):
    config = ExperimentConfig(regions=128, lines_per_region=2, seed=5)
    emap = config.make_emap()
    runs = [
        exact_lifetime(
            emap,
            BirthdayParadoxAttack(),
            build_sparing(scheme, 0.1, 0.9),
            wearleveler,
            rng=5,
        ).to_dict()
        for wearleveler in (NoWearLeveling(), DenseNone())
    ]
    assert runs[0] == runs[1] and runs[0]["deaths"] > 0


def test_a_prone_set_must_name_worn_slots():
    with pytest.raises(ValueError, match="prone"):
        WearDistribution(np.array([0.0, 1.0, 0.0]), prone=np.array([0]))
