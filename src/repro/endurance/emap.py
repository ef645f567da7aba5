"""The concrete per-line endurance map consumed by the simulator.

An :class:`EnduranceMap` couples a per-line endurance array with the
device's region structure (the paper's 1 GB bank has 2048 equal-size
regions).  It provides the region-level views every scheme needs:
per-region endurance metrics, endurance-ordered region ranking (the basis
of Max-WE's weak-priority selection) and the total endurance that
normalizes every lifetime the evaluation reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import require_positive_int


@dataclass(frozen=True)
class EnduranceMap:
    """Per-line endurances plus the region structure of the device.

    Attributes
    ----------
    line_endurance:
        1-D float array; ``line_endurance[i]`` is how many writes physical
        line ``i`` endures before wearing out.  Lines are numbered so that
        region ``r`` owns the contiguous block
        ``[r * lines_per_region, (r+1) * lines_per_region)``.
    regions:
        Number of equal-size regions; must divide the line count.
    """

    line_endurance: np.ndarray
    regions: int

    def __post_init__(self) -> None:
        array = np.asarray(self.line_endurance, dtype=float)
        object.__setattr__(self, "line_endurance", array)
        if array.ndim != 1:
            raise ValueError(f"line_endurance must be 1-D, got shape {array.shape}")
        if array.size == 0:
            raise ValueError("endurance map must contain at least one line")
        if np.any(array <= 0):
            raise ValueError("all line endurances must be strictly positive")
        require_positive_int(self.regions, "regions")
        if array.size % self.regions != 0:
            raise ValueError(
                f"line count {array.size} is not divisible by region count {self.regions}"
            )
        # Freeze the array so schemes cannot silently mutate shared state.
        array.setflags(write=False)

    @property
    def lines(self) -> int:
        """Total number of physical lines."""
        return int(self.line_endurance.size)

    @property
    def lines_per_region(self) -> int:
        """Number of lines in each region."""
        return self.lines // self.regions

    @property
    def total_endurance(self) -> float:
        """Sum of all line endurances (the ideal-lifetime numerator)."""
        return float(self.line_endurance.sum())

    @property
    def min_endurance(self) -> float:
        """``EL`` -- the weakest line's endurance."""
        return float(self.line_endurance.min())

    @property
    def max_endurance(self) -> float:
        """``EH`` -- the strongest line's endurance."""
        return float(self.line_endurance.max())

    @property
    def q_ratio(self) -> float:
        """The paper's process-variation degree ``q = EH / EL``."""
        return self.max_endurance / self.min_endurance

    def region_slice(self, region: int) -> slice:
        """The slice of line indices owned by ``region``."""
        if not 0 <= region < self.regions:
            raise IndexError(f"region {region} out of range [0, {self.regions})")
        per = self.lines_per_region
        return slice(region * per, (region + 1) * per)

    def region_of_line(self, line: int) -> int:
        """Region id owning physical line ``line``."""
        if not 0 <= line < self.lines:
            raise IndexError(f"line {line} out of range [0, {self.lines})")
        return line // self.lines_per_region

    def region_lines(self, region: int) -> np.ndarray:
        """Endurance array of the lines in ``region`` (read-only view)."""
        return self.line_endurance[self.region_slice(region)]

    def region_endurance(self, metric: str = "min") -> np.ndarray:
        """Per-region endurance metric.

        The paper treats region endurance as constant ("The endurance of
        each region is constant"); when intra-region variation is enabled,
        ``metric`` selects how a region's endurance is summarized:
        ``"min"`` (a region is only as strong as its weakest line --
        the conservative default), ``"mean"``, or ``"max"``.
        """
        lines = self.line_endurance
        if metric == "min" or metric == "max":
            # One linear pass over the region starts.  Elementwise min/max
            # never rounds, so this equals ``grid.min/max(axis=1)`` bit for
            # bit, and is faster than that axis reduction at every
            # measured shape.
            op = np.minimum if metric == "min" else np.maximum
            return op.reduceat(lines, np.arange(0, lines.size, self.lines_per_region))
        if metric == "mean":
            # The axis reduction's summation order is part of the result.
            return lines.reshape(self.regions, self.lines_per_region).mean(axis=1)
        raise ValueError(f"unknown region endurance metric {metric!r}")

    def rank_regions(self, metric: str = "min") -> np.ndarray:
        """Region ids sorted ascending by endurance (weakest first).

        Ties are broken by region id so the ranking is deterministic; this
        ordering drives Max-WE's weak-priority spare selection.
        """
        endurances = self.region_endurance(metric)
        return np.lexsort((np.arange(self.regions), endurances))

    def weakest_lines(self, count: int) -> np.ndarray:
        """Physical line ids of the ``count`` weakest lines (ascending endurance)."""
        if not 0 <= count <= self.lines:
            raise ValueError(f"count must be in [0, {self.lines}], got {count}")
        order = np.lexsort((np.arange(self.lines), self.line_endurance))
        return order[:count]

    def with_regions(self, regions: int) -> "EnduranceMap":
        """Re-view the same lines under a different region count."""
        return EnduranceMap(self.line_endurance.copy(), regions)
