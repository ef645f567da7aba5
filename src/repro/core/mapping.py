"""Hybrid spare-line mapping: the RMT and LMT of Section 4.1/4.4.

Max-WE records its allocation in two tables, both held in SRAM for fast
translation:

* :class:`RegionMappingTable` (RMT) -- coarse, *permanent* region-level
  pairs (pra -> sra).  Lines within a pair are matched by their intra-
  region offset ("paired according to the address sequences"), so an entry
  stores only region ids plus one wear-out tag per line of the pair
  indicating whether that line has failed over to its spare.
* :class:`LineMappingTable` (LMT) -- fine, *dynamic* line-level entries
  (pla -> sla) for wear-out lines outside the RWRs, rescued from the
  additional spare regions.

Storage accounting follows Section 4.4.  For ``N`` lines, ``R`` regions,
``S`` spare lines of which fraction ``q`` is region-mapped:

* RMT: ``(q * S * R * log2 R) / N`` bits (one region address per SWR
  region; the rescued region is implied by rank order) plus ``q * S``
  wear-out tag bits (counted separately, as in Section 5.3.2);
* LMT: ``(1 - q) * S * log2 N`` bits (one line address per dynamic spare
  line; the table is content-addressed by spare index).

Both tables also report an ``exact_storage_bits`` that counts every field
a naive SRAM layout would hold (both addresses per entry), for honest
comparison against the paper's accounting.

**Lean kernel state.**  Neither table feeds back into replacement
*decisions*: :meth:`MaxWE.replace_batch` consults only its SRA lookup and
per-slot state codes, with the RMT worn tags and LMT entries written as a
ledger for address translation and the integrity checks.  The lean
``MaxWEStackedState`` therefore skips maintaining them entirely (the LMT
capacity equals the pool size, so its overflow check can never fire
before pool exhaustion truncates the batch) -- which is also why the
engine keeps a real scheme when paranoia guards are on.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.device.errors import ConfigurationError
from repro.util.units import bits_required
from repro.util.validation import require_positive_int


class RegionMappingTable:
    """Permanent region-level mapping between RWRs and their SWRs.

    Parameters
    ----------
    pairs:
        Iterable of ``(pra, sra)`` region-id pairs: physical (rescued) RWR
        region -> spare SWR region.
    lines_per_region:
        Lines per region; fixes the wear-out tag vector length.
    total_regions:
        Region count ``R`` (for address-width accounting).
    """

    def __init__(
        self,
        pairs: Iterable[Tuple[int, int]],
        lines_per_region: int,
        total_regions: int,
    ) -> None:
        require_positive_int(lines_per_region, "lines_per_region")
        require_positive_int(total_regions, "total_regions")
        self._lines_per_region = lines_per_region
        self._total_regions = total_regions
        self._sra_of: Dict[int, int] = {}
        for pra, sra in pairs:
            if not 0 <= pra < total_regions or not 0 <= sra < total_regions:
                raise ConfigurationError(f"region pair ({pra}, {sra}) out of range")
            if pra in self._sra_of:
                raise ConfigurationError(f"region {pra} mapped twice in RMT")
            self._sra_of[pra] = sra
        # Wear-out tags as one dense matrix (row per mapped region) so the
        # batched engine can set many tags in one vectorized store.
        self._row_of = np.full(total_regions, -1, dtype=np.intp)
        for row, pra in enumerate(self._sra_of):
            self._row_of[pra] = row
        self._worn = np.zeros((len(self._sra_of), lines_per_region), dtype=bool)

    def __len__(self) -> int:
        return len(self._sra_of)

    def __contains__(self, pra: int) -> bool:
        return pra in self._sra_of

    def spare_region_of(self, pra: int) -> Optional[int]:
        """SWR region rescuing ``pra``, or ``None`` if not region-mapped."""
        return self._sra_of.get(pra)

    def is_worn(self, pra: int, offset: int) -> bool:
        """Wear-out tag: has line ``offset`` of region ``pra`` failed over?"""
        self._check(pra, offset)
        return bool(self._worn[self._row_of[pra], offset])

    def mark_worn(self, pra: int, offset: int) -> None:
        """Set the wear-out tag after a replacement (Section 4.2)."""
        self._check(pra, offset)
        if self._worn[self._row_of[pra], offset]:
            raise ConfigurationError(
                f"line {offset} of region {pra} already marked worn out"
            )
        self._worn[self._row_of[pra], offset] = True

    def mark_worn_many(self, pras: np.ndarray, offsets: np.ndarray) -> None:
        """Vectorized :meth:`mark_worn` for a batch of failovers."""
        pras = np.asarray(pras, dtype=np.intp)
        offsets = np.asarray(offsets, dtype=np.intp)
        if pras.size == 0:
            return
        if np.any(pras < 0) or np.any(pras >= self._total_regions):
            raise KeyError("a region in the batch is not in the RMT")
        rows = self._row_of[pras]
        if np.any(rows < 0):
            raise KeyError("a region in the batch is not in the RMT")
        if np.any(offsets < 0) or np.any(offsets >= self._lines_per_region):
            raise ConfigurationError(
                f"an offset in the batch is out of range [0, {self._lines_per_region})"
            )
        if np.any(self._worn[rows, offsets]):
            raise ConfigurationError("a line in the batch is already marked worn out")
        self._worn[rows, offsets] = True

    def are_worn(self, pras: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`is_worn` (read-only batch gather of tags)."""
        pras = np.asarray(pras, dtype=np.intp)
        offsets = np.asarray(offsets, dtype=np.intp)
        if pras.size == 0:
            return np.zeros(0, dtype=bool)
        if np.any(pras < 0) or np.any(pras >= self._total_regions):
            raise KeyError("a region in the batch is not in the RMT")
        rows = self._row_of[pras]
        if np.any(rows < 0):
            raise KeyError("a region in the batch is not in the RMT")
        if np.any(offsets < 0) or np.any(offsets >= self._lines_per_region):
            raise ConfigurationError(
                f"an offset in the batch is out of range [0, {self._lines_per_region})"
            )
        return self._worn[rows, offsets]

    def worn_count(self, pra: int | None = None) -> int:
        """Number of failed-over lines (in one region or overall)."""
        if pra is not None:
            self._check(pra, 0)
            return int(self._worn[self._row_of[pra]].sum())
        return int(self._worn.sum())

    def _check(self, pra: int, offset: int) -> None:
        if pra not in self._sra_of:
            raise KeyError(f"region {pra} is not in the RMT")
        if not 0 <= offset < self._lines_per_region:
            raise ConfigurationError(
                f"offset {offset} out of range [0, {self._lines_per_region})"
            )

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------

    @property
    def entry_bits(self) -> int:
        """Paper accounting: one region address per entry."""
        return bits_required(self._total_regions)

    def storage_bits(self) -> int:
        """RMT storage per Section 4.4 (region addresses only)."""
        return len(self._sra_of) * self.entry_bits

    def wear_out_tag_bits(self) -> int:
        """One tag bit per SWR line (counted separately in Section 5.3.2)."""
        return len(self._sra_of) * self._lines_per_region

    def exact_storage_bits(self) -> int:
        """Naive layout: both region addresses plus the tag bits."""
        return (
            len(self._sra_of) * 2 * self.entry_bits + self.wear_out_tag_bits()
        )


class LineMappingTable:
    """Dynamic line-level mapping for rescues outside the RWRs.

    Parameters
    ----------
    capacity:
        Maximum entries -- the number of additional spare lines.
    total_lines:
        Line count ``N`` (for address-width accounting).
    """

    def __init__(self, capacity: int, total_lines: int) -> None:
        if capacity < 0:
            raise ConfigurationError(f"capacity must be >= 0, got {capacity}")
        require_positive_int(total_lines, "total_lines")
        self._capacity = capacity
        self._total_lines = total_lines
        self._sla_of: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._sla_of)

    def __contains__(self, pla: int) -> bool:
        return pla in self._sla_of

    @property
    def capacity(self) -> int:
        """Maximum number of entries."""
        return self._capacity

    def lookup(self, pla: int) -> Optional[int]:
        """Spare line replacing ``pla``, or ``None``."""
        return self._sla_of.get(pla)

    def items(self) -> Iterable[Tuple[int, int]]:
        """Read-only view of the live ``(pla, sla)`` entries."""
        return self._sla_of.items()

    def insert(self, pla: int, sla: int) -> None:
        """Record that ``pla`` is now served by spare line ``sla``.

        Re-rescue is allowed (Section 4.2: "If ala is in the LMT, we
        remove the old entry from LMT before adding a new one"), so an
        existing entry for ``pla`` is replaced rather than rejected.
        """
        if not 0 <= pla < self._total_lines or not 0 <= sla < self._total_lines:
            raise ConfigurationError(f"line pair ({pla}, {sla}) out of range")
        if pla not in self._sla_of and len(self._sla_of) >= self._capacity:
            raise ConfigurationError("LMT is full; no additional spare lines remain")
        self._sla_of[pla] = sla

    def insert_many(self, plas: np.ndarray, slas: np.ndarray) -> None:
        """Vectorized :meth:`insert` for a batch of rescues.

        Batch semantics match a loop of scalar inserts: re-rescued lines
        overwrite their old entry, and the capacity check counts only the
        genuinely new keys.
        """
        plas = np.asarray(plas, dtype=np.intp)
        slas = np.asarray(slas, dtype=np.intp)
        if plas.size == 0:
            return
        if (
            np.any(plas < 0)
            or np.any(plas >= self._total_lines)
            or np.any(slas < 0)
            or np.any(slas >= self._total_lines)
        ):
            raise ConfigurationError("a line pair in the batch is out of range")
        new_keys = set(map(int, plas)) - self._sla_of.keys()
        if len(self._sla_of) + len(new_keys) > self._capacity:
            raise ConfigurationError("LMT is full; no additional spare lines remain")
        self._sla_of.update(zip(map(int, plas), map(int, slas)))

    def remove(self, pla: int) -> None:
        """Drop the entry for ``pla``."""
        if pla not in self._sla_of:
            raise KeyError(f"line {pla} is not in the LMT")
        del self._sla_of[pla]

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------

    @property
    def entry_bits(self) -> int:
        """Paper accounting: one line address per entry."""
        return bits_required(self._total_lines)

    def storage_bits(self) -> int:
        """LMT storage per Section 4.4, sized for full capacity."""
        return self._capacity * self.entry_bits

    def exact_storage_bits(self) -> int:
        """Naive layout: both line addresses per entry."""
        return self._capacity * 2 * self.entry_bits
