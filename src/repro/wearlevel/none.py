"""The identity (no wear-leveling) scheme.

The unprotected baseline: logical addresses map straight to physical
slots, forever.  Under UAA this is irrelevant (uniform is uniform); under
a repeated-address attack it is catastrophic -- the hot line takes every
write, which is why wear-leveling exists at all.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.attacks.base import (
    PROFILE_CONCENTRATED,
    PROFILE_SKEWED,
    PROFILE_UNIFORM,
    AccessProfile,
)
from repro.wearlevel.base import SwapOp, WearDistribution, WearLeveler


class NoWearLeveling(WearLeveler):
    """Static identity mapping; no remaps, no overhead.

    For concentrated profiles the fluid view places all wear on one slot.
    The slot is drawn uniformly at attach time (the attacker picks an
    arbitrary address; with no leveling, the expected lifetime is over a
    random victim), so seeded runs remain reproducible.
    """

    name = "none"

    def __init__(self) -> None:
        super().__init__()
        self._hot_slot: int | None = None

    def _on_attach(self) -> None:
        assert self._rng is not None
        self._hot_slot = int(self._rng.integers(0, self.slots))

    def wear_weights(self, profile: AccessProfile) -> WearDistribution:
        self._require_attached()
        count = self.slots
        if profile.kind == PROFILE_UNIFORM:
            # A read-only broadcast view: constant weights need no memory.
            return WearDistribution(np.broadcast_to(1.0 / count, (count,)))
        if profile.kind == PROFILE_SKEWED:
            return WearDistribution(profile.logical_rates(count))
        if profile.kind == PROFILE_CONCENTRATED:
            assert self._hot_slot is not None
            background = (1.0 - profile.hot_fraction) / count
            if background > 0.0:
                weights = np.full(count, background)
                weights[self._hot_slot] += profile.hot_fraction
                return WearDistribution(weights)
            # A pure attack wears the hot slot alone: say so, and the
            # engine reads one weight instead of every slot's.
            weights = np.zeros(count)
            weights[self._hot_slot] = profile.hot_fraction
            return WearDistribution(weights, prone=np.array([self._hot_slot]))
        raise ValueError(f"unknown profile kind {profile.kind!r}")  # pragma: no cover

    def translate(self, logical: int) -> int:
        self._require_attached()
        if not 0 <= logical < self.slots:
            raise IndexError(f"logical address {logical} out of range [0, {self.slots})")
        return logical

    def record_write(self, logical: int) -> List[SwapOp]:
        self._require_attached()
        return []
