"""Spare-region allocation: weak-priority selection and weak-strong matching.

This module turns an endurance map into Max-WE's static allocation plan
(Section 4.1).  With ``R`` regions ranked by ascending endurance, the plan
carves the ranking into four consecutive bands, mirroring the paper's
seven-region example (endurance order 2 < 3 < 5 < 1 < 6 < 0 < 4; SWRs =
{2, 3}, RWRs = {5, 1}, additional spare = {6}, working = {0, 4}):

========================  =====================================================
rank band                 role
========================  =====================================================
``[0, k)``                SWRs -- Spare Weakest Regions (permanent rescuers)
``[k, 2k)``               RWRs -- Remaining Weakest Regions (rescued users)
``[2k, 2k + a)``          additional spare regions (dynamic line-level pool)
``[2k + a, R)``           ordinary working regions
========================  =====================================================

where ``k`` SWR regions and ``a`` additional regions split the spare
budget according to the SWR fraction (the paper picks 90% SWRs after the
Figure 7 sweep).  Weak-strong matching then pairs the *weakest* SWR with
the *strongest* RWR and so on, balancing every pair's combined endurance.

Alternative ``spare_selection`` and ``matching`` policies exist solely for
the ablation benches (ABL-MATCH): they let the benchmarks quantify what
each Max-WE ingredient contributes.

**Lean kernel state.**  The deterministic paper configuration
(``weak-priority`` + ``weak-strong``) is a pure function of the endurance
map, which is what lets ``repro.core.maxwe.MaxWEStackedState`` rebuild
this plan without instantiating a scheme: a partition-based
``stable_rank_prefix`` over the map's region endurances reproduces the first ``2*swr + additional`` entries of
``rank_regions`` (both break ties by ascending region id), which is all
the plan consumes, and
because the ranking slices handed to the pairing step are already
ascending, the stable re-sorts below are identity permutations -- so
``swr_paired == ranking[:k]`` and ``rwr_paired == ranking[k:2k][::-1]``
hold exactly.  Any change to the banding or pairing logic here must be
mirrored there (``tests/core/test_maxwe_stacked.py`` pins the
equivalence).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device.errors import ConfigurationError
from repro.endurance.emap import EnduranceMap
from repro.util.rng import RandomState, derive_rng
from repro.util.validation import require_fraction

#: Valid spare-selection policies.
SPARE_SELECTIONS = ("weak-priority", "random", "strong-priority")

#: Valid SWR-to-RWR matching policies.
MATCHINGS = ("weak-strong", "identity", "random")


@dataclass(frozen=True)
class AllocationPlan:
    """Max-WE's static region allocation.

    Attributes
    ----------
    swr_regions:
        Region ids of the Spare Weakest Regions.
    rwr_regions:
        Region ids of the Remaining Weakest Regions, index-aligned with
        ``swr_regions``: ``swr_regions[i]`` permanently rescues
        ``rwr_regions[i]``.
    additional_regions:
        Region ids of the dynamic (line-level) spare pool.
    working_regions:
        All user-facing regions (RWRs plus ordinary regions), ascending id.
    """

    swr_regions: np.ndarray
    rwr_regions: np.ndarray
    additional_regions: np.ndarray
    working_regions: np.ndarray

    def __post_init__(self) -> None:
        for name in ("swr_regions", "rwr_regions", "additional_regions", "working_regions"):
            array = np.asarray(getattr(self, name), dtype=np.intp)
            object.__setattr__(self, name, array)
        if self.swr_regions.size != self.rwr_regions.size:
            raise ConfigurationError(
                f"SWR count {self.swr_regions.size} != RWR count {self.rwr_regions.size}"
            )
        all_ids = np.concatenate(
            [self.swr_regions, self.additional_regions, self.working_regions]
        )
        if np.unique(all_ids).size != all_ids.size:
            raise ConfigurationError("allocation plan assigns a region to two roles")

    @property
    def spare_region_count(self) -> int:
        """Total spare regions (SWRs + additional)."""
        return int(self.swr_regions.size + self.additional_regions.size)

    def partner_of_rwr(self, rwr_region: int) -> int:
        """The SWR region permanently rescuing ``rwr_region``."""
        matches = np.flatnonzero(self.rwr_regions == rwr_region)
        if matches.size != 1:
            raise KeyError(f"region {rwr_region} is not an RWR")
        return int(self.swr_regions[matches[0]])

    def is_rwr(self, region: int) -> bool:
        """Whether ``region`` is in the rescued (RWR) set."""
        return bool(np.isin(region, self.rwr_regions))


def plan_allocation(
    emap: EnduranceMap,
    spare_fraction: float,
    swr_fraction: float = 0.9,
    *,
    spare_selection: str = "weak-priority",
    matching: str = "weak-strong",
    region_metric: str = "min",
    rng: RandomState = None,
) -> AllocationPlan:
    """Build Max-WE's allocation plan for an endurance map.

    Parameters
    ----------
    emap:
        Device endurance map (fixes the region count and ranking).
    spare_fraction:
        Fraction ``p`` of regions reserved as spare space.
    swr_fraction:
        Fraction of the spare space used as permanent SWRs (the paper's
        90% operating point); the remainder is the dynamic pool.
    spare_selection / matching:
        Ablation knobs; the paper's scheme is
        ``("weak-priority", "weak-strong")``.
    region_metric:
        How a region's endurance is summarized (see
        :meth:`EnduranceMap.region_endurance`).
    rng:
        Randomness for the ``"random"`` ablation policies only.
    """
    require_fraction(spare_fraction, "spare_fraction")
    require_fraction(swr_fraction, "swr_fraction")
    if spare_selection not in SPARE_SELECTIONS:
        raise ConfigurationError(
            f"spare_selection must be one of {SPARE_SELECTIONS}, got {spare_selection!r}"
        )
    if matching not in MATCHINGS:
        raise ConfigurationError(f"matching must be one of {MATCHINGS}, got {matching!r}")

    regions = emap.regions
    spare_count = int(round(spare_fraction * regions))
    swr_count = int(round(swr_fraction * spare_count))
    additional_count = spare_count - swr_count
    if 2 * swr_count + additional_count > regions:
        raise ConfigurationError(
            f"{swr_count} SWRs need as many RWRs plus {additional_count} additional "
            f"regions, exceeding the {regions} available"
        )

    ranking = emap.rank_regions(region_metric)  # ascending endurance
    region_endurance = emap.region_endurance(region_metric)
    generator = derive_rng(rng, "allocation") if (
        spare_selection == "random" or matching == "random"
    ) else None

    if spare_selection == "weak-priority":
        swr = ranking[:swr_count]
        rwr = ranking[swr_count : 2 * swr_count]
        additional = ranking[2 * swr_count : 2 * swr_count + additional_count]
    elif spare_selection == "strong-priority":
        # Ablation: waste the strongest regions as spares; the weakest
        # regions (still the likeliest to die) become the rescued set.
        swr = ranking[regions - swr_count :]
        additional = ranking[regions - swr_count - additional_count : regions - swr_count]
        rwr = ranking[:swr_count]
    else:  # random
        assert generator is not None
        chosen = generator.choice(regions, size=spare_count, replace=False)
        chosen_sorted = chosen[np.argsort(region_endurance[chosen], kind="stable")]
        swr = chosen_sorted[:swr_count]
        additional = chosen_sorted[swr_count:]
        remaining = ranking[~np.isin(ranking, chosen)]
        rwr = remaining[:swr_count]

    # Pair SWRs and RWRs.  ``ranking`` slices are ascending by endurance.
    swr_ascending = swr[np.argsort(region_endurance[swr], kind="stable")]
    rwr_ascending = rwr[np.argsort(region_endurance[rwr], kind="stable")]
    if matching == "weak-strong":
        # Weakest SWR rescues the strongest RWR (the paper's matching).
        swr_paired = swr_ascending
        rwr_paired = rwr_ascending[::-1]
    elif matching == "identity":
        # Ablation: weakest with weakest -- the weakest pair stays weak.
        swr_paired = swr_ascending
        rwr_paired = rwr_ascending
    else:  # random
        assert generator is not None
        swr_paired = swr_ascending
        rwr_paired = generator.permutation(rwr_ascending)

    working_mask = np.ones(regions, dtype=bool)
    working_mask[swr] = False
    working_mask[additional] = False
    working = np.flatnonzero(working_mask)
    return AllocationPlan(
        swr_regions=swr_paired,
        rwr_regions=rwr_paired,
        additional_regions=np.asarray(additional, dtype=np.intp),
        working_regions=working,
    )
