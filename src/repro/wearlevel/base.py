"""Wear-leveling interface shared by the fluid and exact simulators.

A wear-leveler owns the logical-to-physical mapping of the lines *in
service* (the user-visible slots).  It exposes two complementary views:

**Fluid view** (:meth:`WearLeveler.wear_weights`): given an attack's
:class:`~repro.attacks.base.AccessProfile`, return the scheme's stationary
per-slot wear distribution -- how the traffic lands on physical slots once
the scheme's randomization mixes it -- plus the fraction of applied wear
that corresponds to served user writes (remap swaps cost extra writes;
Figure 2 of the paper shows a swap adds one write to the source and two to
the destination).  The lifetime engine consumes this directly.

**Exact view** (:meth:`WearLeveler.translate` /
:meth:`WearLeveler.record_write`): a concrete mapping plus per-write remap
side effects, consumed by the exact reference simulator that validates the
fluid model on small devices.

The stationary distributions follow one rule, derived scheme by scheme in
the submodules: wear-leveling is a time-varying *permutation*, so the
uniform part of the traffic stays uniform no matter the scheme (the
paper's observation that lifetime under UAA is uncorrelated with the
wear-leveling scheme), while the concentrated/skewed *excess* is spread
according to how the scheme picks remap targets -- uniformly for
endurance-oblivious randomizers, proportionally to ``endurance**beta`` for
endurance-aware ones.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.attacks.base import (
    PROFILE_CONCENTRATED,
    PROFILE_SKEWED,
    PROFILE_UNIFORM,
    AccessProfile,
)
from repro.util.rng import RandomState, derive_rng
from repro.util.validation import require_fraction


def distinct_values(weights: np.ndarray) -> np.ndarray:
    """``weights``, or its first entry when it is a constant broadcast view.

    A stride-0 view (a uniform distribution, see
    :class:`~repro.wearlevel.none.NoWearLeveling`) holds one value, and
    numpy reduces it several times slower than a dense array.  Reductions
    that ignore multiplicity -- ``min``, ``max``, ``any``, the sign of a
    sum, equality of two such views -- read the same values from the
    returned array.
    """
    return weights[:1] if weights.size and weights.strides == (0,) else weights


@dataclass(frozen=True)
class WearDistribution:
    """Stationary wear distribution over slots.

    Attributes
    ----------
    weights:
        Relative expected wear rate per slot (any positive scale; the
        engine renormalizes).  Includes remap-overhead wear.
    useful_fraction:
        Served user writes per unit of total applied wear, in ``(0, 1]``.
        ``1.0`` means no remap overhead.
    prone:
        Optional ascending indices of the slots with positive weight,
        for a distribution that wears only a few slots; every other
        weight is zero.  Validation and the engine's init then read those
        entries alone (the zeros are not re-checked: skipping that
        full-length pass is the point).
    """

    weights: np.ndarray
    useful_fraction: float = 1.0
    prone: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if self.prone is None:
            values = distinct_values(weights)
            if np.any(values < 0):
                raise ValueError("weights must be non-negative")
            if values.sum() <= 0:
                raise ValueError("weights must have positive sum")
        else:
            prone = np.asarray(self.prone, dtype=np.intp)
            if prone.ndim != 1 or prone.size == 0:
                raise ValueError("prone must be a non-empty 1-D index array")
            if not (weights[prone] > 0).all():
                raise ValueError("prone slots must have positive weights")
            object.__setattr__(self, "prone", prone)
        object.__setattr__(self, "weights", weights)
        require_fraction(self.useful_fraction, "useful_fraction")
        if self.useful_fraction == 0:
            raise ValueError("useful_fraction must be positive")


#: A data-movement side effect of a remap: (physical_slot, extra_writes).
SwapOp = Tuple[int, int]


class WearLeveler(ABC):
    """Base class for all wear-leveling schemes."""

    #: Short machine-readable name used in result tables.
    name: str = "wear-leveler"

    def __init__(self) -> None:
        self._slot_endurance: np.ndarray | None = None
        self._rng: np.random.Generator | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self, slot_endurance: np.ndarray, rng: RandomState = None) -> None:
        """Bind the scheme to a device's in-service slots.

        Parameters
        ----------
        slot_endurance:
            Per-slot endurance of the lines initially backing the user
            space; endurance-aware schemes read their metric from it (the
            paper notes the distribution parameters are available from
            manufacture time).
        rng:
            Randomness for the scheme's own randomization.
        """
        endurance = np.asarray(slot_endurance, dtype=float)
        if endurance.ndim != 1 or endurance.size == 0:
            raise ValueError("slot_endurance must be a non-empty 1-D array")
        # ``not min() > 0`` also rejects NaN, without a full boolean mask.
        if not endurance.min() > 0:
            raise ValueError("slot endurances must be strictly positive")
        self._slot_endurance = endurance
        self._rng = derive_rng(rng, f"wl-{self.name}")
        self._on_attach()

    def _on_attach(self) -> None:
        """Hook for subclasses to build their mapping state."""

    @property
    def slots(self) -> int:
        """Number of user-visible slots (available after :meth:`attach`)."""
        self._require_attached()
        assert self._slot_endurance is not None
        return int(self._slot_endurance.size)

    @property
    def slot_endurance(self) -> np.ndarray:
        """Per-slot endurances the scheme was attached with."""
        self._require_attached()
        assert self._slot_endurance is not None
        return self._slot_endurance

    def _require_attached(self) -> None:
        if self._slot_endurance is None:
            raise RuntimeError(f"{type(self).__name__} used before attach()")

    # ------------------------------------------------------------------
    # Fluid view
    # ------------------------------------------------------------------

    @abstractmethod
    def wear_weights(self, profile: AccessProfile) -> WearDistribution:
        """Stationary wear distribution for the given access profile."""

    # ------------------------------------------------------------------
    # Exact view
    # ------------------------------------------------------------------

    @abstractmethod
    def translate(self, logical: int) -> int:
        """Current physical slot backing logical address ``logical``."""

    @abstractmethod
    def record_write(self, logical: int) -> List[SwapOp]:
        """Account one user write to ``logical``; return remap side effects.

        The returned list holds ``(physical_slot, extra_writes)`` pairs for
        the data movement the write triggered.  A swap of lines A and B
        redirected to B reproduces Figure 2's accounting: 1 write to A and
        2 writes to B (A's old data moves to B, then the user write lands
        on B; B's old data lands on A).
        """

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        return self.name

    # ------------------------------------------------------------------
    # Shared stationary-distribution helper
    # ------------------------------------------------------------------

    def _stationary_weights(
        self,
        profile: AccessProfile,
        bias_exponent: float,
        *,
        overhead_uniform: float = 0.0,
        overhead_nonuniform: float = 0.0,
    ) -> WearDistribution:
        """Compose the scheme-generic stationary distribution.

        The uniform component of the traffic is permutation-invariant and
        stays uniform; the non-uniform *excess* is redistributed according
        to the scheme's remap-target bias ``endurance**bias_exponent``.

        Parameters
        ----------
        bias_exponent:
            0 for endurance-oblivious randomizers; >0 for endurance-aware
            schemes that steer hot data toward strong lines.
        overhead_uniform / overhead_nonuniform:
            Extra wear per user write caused by remap data movement for
            uniform traffic (interval-triggered schemes keep remapping
            under UAA) and for concentrated traffic respectively.
        """
        self._require_attached()
        endurance = self.slot_endurance
        count = endurance.size
        uniform = np.full(count, 1.0 / count)
        bias = endurance**bias_exponent
        bias = bias / bias.sum()

        if profile.kind == PROFILE_UNIFORM:
            excess_mass = 0.0
            base = uniform
        elif profile.kind == PROFILE_CONCENTRATED:
            excess_mass = 1.0
            base = uniform  # unused when excess_mass == 1
        elif profile.kind == PROFILE_SKEWED:
            rates = profile.logical_rates(count)
            floor = float(rates.min()) * count  # mass in the uniform floor
            excess_mass = 1.0 - floor
            base = uniform
        else:  # pragma: no cover - AccessProfile validates kinds
            raise ValueError(f"unknown profile kind {profile.kind!r}")

        weights = (1.0 - excess_mass) * base + excess_mass * bias
        overhead = (
            (1.0 - excess_mass) * overhead_uniform + excess_mass * overhead_nonuniform
        )
        # Overhead wear lands where the remap traffic lands; spreading it
        # with the same mixture keeps the distribution self-consistent.
        useful = 1.0 / (1.0 + overhead)
        return WearDistribution(weights=weights, useful_fraction=useful)
