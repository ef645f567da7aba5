"""Structured metrics: counters, gauges, histograms, and span timings.

One :class:`MetricsRegistry` accompanies a run (a CLI command, a
benchmark leg, one :meth:`~repro.sim.runner.SimRunner.run_detailed`
call) and accumulates everything the run wants to report:

* **counters** -- monotonically increasing totals (``runner.retries``,
  ``sim.deaths``);
* **gauges** -- last-written values (``runner.jobs``);
* **histograms** -- distributions of *deterministic simulation
  quantities* (``sim.deaths_per_run``) over **fixed bucket
  boundaries**, so two identical runs always produce identical bucket
  vectors -- no adaptive binning;
* **timings** -- wall-clock measurements from :meth:`span
  <MetricsRegistry.span>` / :meth:`observe_seconds
  <MetricsRegistry.observe_seconds>` (``runner/worker_run``,
  ``sim/kernel``), also bucketed over fixed boundaries.

The two families have deliberately different determinism contracts,
which the JSONL sink (:mod:`repro.obs.sink`) enforces: counters, gauges,
histograms, and span *call counts* are pure functions of config + seed
and land in the metrics body (byte-identical across identical runs);
wall-clock durations are inherently run-dependent and are confined to
the manifest record.

Worker processes build their own registry and ship a :meth:`snapshot`
back to the supervisor, which folds it in with
:meth:`merge_snapshot` -- every aggregate here is commutative (sums,
min/max), so parallel completion order cannot change the merged totals.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Fixed bucket boundaries (upper bounds, seconds) for timing histograms.
#: Chosen to span everything from a cache lookup (~10us) to an hour-long
#: full-scale simulation; the implicit final bucket catches overflow.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 60.0, 600.0, 3600.0,
)

#: Fixed bucket boundaries (upper bounds) for count-valued histograms
#: (deaths per run, batch sizes, epochs, ...).
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = (
    1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)


def _bucket_index(boundaries: Sequence[float], value: float) -> int:
    """Index of the first bucket whose upper bound is >= ``value``.

    Values above every boundary land in the implicit overflow bucket at
    ``len(boundaries)``.
    """
    for index, bound in enumerate(boundaries):
        if value <= bound:
            return index
    return len(boundaries)


def _validate_boundaries(boundaries: Sequence[float]) -> Tuple[float, ...]:
    bounds = tuple(float(b) for b in boundaries)
    if not bounds:
        raise ValueError("histogram needs at least one bucket boundary")
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ValueError(f"bucket boundaries must strictly increase, got {bounds}")
    return bounds


@dataclass
class Histogram:
    """A fixed-boundary histogram of observed values.

    ``counts`` has ``len(boundaries) + 1`` slots: one per boundary
    (upper-bound inclusive) plus the overflow bucket.  Boundaries are
    immutable after construction, so the serialized shape of a histogram
    never depends on the values observed.
    """

    boundaries: Tuple[float, ...]
    counts: List[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def __post_init__(self) -> None:
        self.boundaries = _validate_boundaries(self.boundaries)
        if not self.counts:
            self.counts = [0] * (len(self.boundaries) + 1)
        elif len(self.counts) != len(self.boundaries) + 1:
            raise ValueError(
                f"counts needs {len(self.boundaries) + 1} slots, "
                f"got {len(self.counts)}"
            )

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value``.

        For integer values (below 2**53) the bulk form leaves the same
        snapshot as ``count`` single calls: ``value * count`` is exact.
        """
        if count < 1:
            raise ValueError(f"count must be a positive integer, got {count}")
        value = float(value)
        self.counts[_bucket_index(self.boundaries, value)] += count
        self.count += count
        self.total += value * count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean observed value (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        """JSON-serializable view (finite even when empty)."""
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }

    def merge(self, snapshot: Mapping) -> None:
        """Fold another histogram's :meth:`snapshot` into this one."""
        boundaries = tuple(float(b) for b in snapshot["boundaries"])
        if boundaries != self.boundaries:
            raise ValueError(
                f"cannot merge histograms with different boundaries: "
                f"{boundaries} vs {self.boundaries}"
            )
        for index, count in enumerate(snapshot["counts"]):
            self.counts[index] += int(count)
        incoming = int(snapshot["count"])
        self.count += incoming
        self.total += float(snapshot["sum"])
        if incoming:
            self.min = min(self.min, float(snapshot["min"]))
            self.max = max(self.max, float(snapshot["max"]))


class MetricsRegistry:
    """Accumulator for one run's counters, gauges, histograms, timings.

    Not thread-safe by design: the supervisor and the serial path both
    record from a single thread, and worker processes use their own
    registry merged in afterwards.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timings: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> None:
        """Increment counter ``name`` by ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = value

    def observe(
        self,
        name: str,
        value: float,
        boundaries: Sequence[float] = DEFAULT_COUNT_BUCKETS,
        count: int = 1,
    ) -> None:
        """Record ``value`` (``count`` times) into the histogram ``name``.

        Use only for quantities that are pure functions of config + seed
        (death counts, epochs, batch sizes); wall-clock durations belong
        in :meth:`observe_seconds`.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(tuple(boundaries))
        histogram.observe(value, count)

    def observe_seconds(
        self,
        name: str,
        seconds: float,
        boundaries: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        """Record a wall-clock duration under timing ``name``."""
        timing = self._timings.get(name)
        if timing is None:
            timing = self._timings[name] = Histogram(tuple(boundaries))
        timing.observe(seconds)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block and record it under timing ``name``.

        Spans do not auto-nest; use path-style names (``runner/scan``,
        ``sim/kernel``) to express the hierarchy explicitly, so a span's
        identity never depends on its caller.
        """
        started = perf_counter()
        try:
            yield
        finally:
            self.observe_seconds(name, perf_counter() - started)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> Optional[float]:
        """Current value of gauge ``name`` (``None`` if never set)."""
        return self._gauges.get(name)

    def timing(self, name: str) -> Optional[Histogram]:
        """The timing histogram recorded under ``name``, if any."""
        return self._timings.get(name)

    def histogram(self, name: str) -> Optional[Histogram]:
        """The value histogram recorded under ``name``, if any."""
        return self._histograms.get(name)

    # ------------------------------------------------------------------
    # Snapshots and merging
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable view of everything recorded so far.

        Keys are emitted sorted so the snapshot (and anything serialized
        from it with ``sort_keys``) is independent of recording order.
        """
        return {
            "counters": {name: self._counters[name] for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name] for name in sorted(self._gauges)},
            "histograms": {
                name: self._histograms[name].snapshot()
                for name in sorted(self._histograms)
            },
            "timings": {
                name: self._timings[name].snapshot()
                for name in sorted(self._timings)
            },
        }

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram buckets add; gauges take the incoming
        value (workers should avoid gauges for exactly this reason);
        min/max combine.  All operations are commutative, so merging
        worker snapshots in completion order is schedule-independent.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, value)
        for family, target in (
            ("histograms", self._histograms),
            ("timings", self._timings),
        ):
            for name, incoming in snapshot.get(family, {}).items():
                existing = target.get(name)
                if existing is None:
                    target[name] = existing = Histogram(
                        tuple(incoming["boundaries"])
                    )
                existing.merge(incoming)


def maybe_span(metrics: Optional[MetricsRegistry], name: str):
    """``metrics.span(name)`` when a registry is attached, else a no-op.

    Lets instrumented code keep one code path::

        with maybe_span(self._metrics, "sim/kernel"):
            ...
    """
    if metrics is None:
        return nullcontext()
    return metrics.span(name)
