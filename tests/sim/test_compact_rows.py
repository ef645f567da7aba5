"""Compact work rows: Max-WE stays on them for the whole trial.

The batched kernel copies the ``capacity + BATCH_LIMIT`` smallest
initial death times of a never-removing scheme into compact work rows,
and goes back to the full arrays only when :func:`_select_epoch`
declines (``sim.compact_exits``, a registry-only counter).  Max-WE under
UAA ends in capped epochs whose cap stays below the work sentinel while
the chronological bound passes it; those epochs need no excluded slot,
so a decline there would be a wasted full-row partition on the paper's
headline cell.  The tests count the declines and the selections made on
full rows, with no wall clock involved.  Under BPA without a
wear-leveler every slot but one never wears, and the rows are the prone
slots alone.
"""

import json
import math

import pytest

import repro.sim.ensemble as ensemble_module
import repro.sim.lifetime as lifetime_module
from repro.attacks.bpa import BirthdayParadoxAttack
from repro.attacks.uaa import UniformAddressAttack
from repro.obs.metrics import MetricsRegistry
from repro.sim.config import ExperimentConfig
from repro.sim.lifetime import simulate_lifetime
from repro.sim.reference import exact_lifetime
from repro.sim.runner import build_sparing

EXIT_COUNTER = "sim.compact_exits"


def _run(config, metrics):
    return simulate_lifetime(
        config.make_emap(),
        UniformAddressAttack(),
        build_sparing("max-we", config.spare_fraction, config.swr_fraction),
        rng=config.seed,
        record_timeline=False,
        metrics=metrics,
    )


def _spy(monkeypatch, decline_first=False):
    """Record the row size of every vectorized selection; optionally
    make the first compact-row selection decline."""
    sizes = []
    select = ensemble_module._select_epoch

    def spy(row, floor, w_max, sentinel=math.inf):
        sizes.append(row.size)
        if decline_first and len(sizes) == 1:
            assert not math.isinf(sentinel)
            return None
        return select(row, floor, w_max, sentinel)

    monkeypatch.setattr(ensemble_module, "_select_epoch", spy)
    return sizes


@pytest.mark.parametrize(
    "regions, lines_per_region, batch_limit",
    [
        # BATCH_LIMIT patched down, so a small device reaches the cap.
        (256, 8, 8),
        (512, 8, 32),
        # The smallest unpatched shape whose last epochs are capped with
        # the bound past the sentinel.
        (8192, 64, None),
    ],
)
def test_max_we_under_uaa_never_leaves_the_compact_row(
    monkeypatch, regions, lines_per_region, batch_limit
):
    if batch_limit is not None:
        monkeypatch.setattr(lifetime_module, "BATCH_LIMIT", batch_limit)
    config = ExperimentConfig(
        regions=regions, lines_per_region=lines_per_region, seed=2019
    )
    sizes = _spy(monkeypatch)
    metrics = MetricsRegistry()
    result = _run(config, metrics)
    counters = metrics.snapshot()["counters"]
    assert result.deaths > 0
    assert EXIT_COUNTER not in counters
    # Every selection ran once, on the one compact row.
    assert len(sizes) == counters["sim.full_scans"]
    assert len(set(sizes)) == 1
    assert sizes[0] < regions * lines_per_region


def test_a_decline_counts_one_exit_and_keeps_the_result(monkeypatch):
    monkeypatch.setattr(lifetime_module, "BATCH_LIMIT", 8)
    config = ExperimentConfig(regions=256, lines_per_region=8, seed=2019)
    metrics = MetricsRegistry()
    compact = _run(config, metrics)
    with monkeypatch.context() as patch:
        sizes = _spy(patch, decline_first=True)
        exit_metrics = MetricsRegistry()
        exited = _run(config, exit_metrics)
    counters = exit_metrics.snapshot()["counters"]
    assert counters[EXIT_COUNTER] == 1
    # The declined selection is retried on the full row, and every later
    # one stays there.
    assert len(set(sizes[1:])) == 1 and sizes[1] > sizes[0]
    # The counter lives in the registry only: the result body is the same.
    assert json.dumps(exited.to_dict(), sort_keys=True) == json.dumps(
        compact.to_dict(), sort_keys=True
    )
    del counters[EXIT_COUNTER]
    assert counters == metrics.snapshot()["counters"]


def _bpa(emap, seed, metrics=None, **options):
    return simulate_lifetime(
        emap,
        BirthdayParadoxAttack(),
        build_sparing("max-we", 0.1, 0.9),
        rng=seed,
        metrics=metrics,
        **options,
    )


def _outcome(result):
    """Everything but the regime counters, which guards pin differently."""
    body = result.to_dict()
    return {key: body[key] for key in body if key != "metadata"}


@pytest.mark.parametrize("seed", [1, 2])
def test_max_we_under_bpa_keeps_rows_to_the_prone_slots(monkeypatch, seed):
    """Without a wear-leveler BPA wears exactly one slot of a device
    larger than ``FRONTIER_LIMIT``: every selection reads a row that
    holds no more than the prone slots, never the full arrays, and the
    result is the full-row run's."""
    config = ExperimentConfig(regions=2048, lines_per_region=8, seed=seed)
    emap = config.make_emap()
    assert emap.lines > lifetime_module.FRONTIER_LIMIT
    sizes = _spy(monkeypatch)
    metrics = MetricsRegistry()
    result = _bpa(emap, seed, metrics)
    counters = metrics.snapshot()["counters"]
    assert result.deaths > 1 and sizes
    assert EXIT_COUNTER not in counters
    assert max(sizes) <= 1  # one hot slot: the prone count
    full_rows = _bpa(emap, seed, paranoia="cheap")
    assert _outcome(result) == _outcome(full_rows)


def test_max_we_under_bpa_on_prone_rows_matches_the_oracle():
    config = ExperimentConfig(regions=256, lines_per_region=2, seed=5)
    emap = config.make_emap()
    result = _bpa(emap, 5)
    oracle = exact_lifetime(
        emap, BirthdayParadoxAttack(), build_sparing("max-we", 0.1, 0.9), rng=5
    )
    assert _outcome(result) == _outcome(oracle)
