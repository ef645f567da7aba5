"""Lightweight counters and event logging for simulations.

Simulators record notable events (line wear-out, replacement, remap, device
failure) so tests and examples can assert on *why* a lifetime ended, not
just on the final number.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Deque, Iterator, List, Mapping


@dataclass(frozen=True)
class SimEvent:
    """A single notable simulation event.

    Attributes
    ----------
    kind:
        Short machine-readable tag, e.g. ``"line-worn-out"``,
        ``"replacement"``, ``"remap"``, ``"device-failure"``.
    round_index:
        Simulation round in which the event occurred.
    detail:
        Free-form payload (addresses, region ids, ...).
    """

    kind: str
    round_index: int
    detail: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serializable view of the event."""
        return {
            "kind": self.kind,
            "round_index": self.round_index,
            "detail": dict(self.detail),
        }


class EventLog:
    """Append-only log of :class:`SimEvent` with per-kind counting.

    The log can be bounded (``max_events``) so multi-million-event
    simulations keep only counts plus the most recent events.  Bounded
    retention uses ``deque(maxlen=...)``, whose eviction-on-append is
    O(1); the previous ``del list[0]`` was O(n) per append once the
    bound was reached, i.e. quadratic over a long run.
    """

    def __init__(self, max_events: int | None = 10_000) -> None:
        if max_events is not None and max_events <= 0:
            raise ValueError(f"max_events must be positive or None, got {max_events}")
        self._events: Deque[SimEvent] = deque(maxlen=max_events)
        self._counts: Counter[str] = Counter()
        self._max_events = max_events

    def record(self, kind: str, round_index: int, **detail: object) -> SimEvent:
        """Append an event and return it."""
        event = SimEvent(kind=kind, round_index=round_index, detail=dict(detail))
        self._counts[kind] += 1
        self._events.append(event)
        return event

    def count(self, kind: str) -> int:
        """Total number of events of ``kind`` ever recorded."""
        return self._counts[kind]

    @property
    def counts(self) -> Mapping[str, int]:
        """Read-only view of all per-kind counts."""
        return dict(self._counts)

    def events(self, kind: str | None = None) -> List[SimEvent]:
        """Retained events, optionally filtered by kind."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event.kind == kind]

    def __iter__(self) -> Iterator[SimEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)


class CounterSet:
    """A named bundle of integer counters with explicit increment semantics."""

    def __init__(self) -> None:
        self._counters: Counter[str] = Counter()

    def add(self, name: str, amount: int = 1) -> None:
        """Increment ``name`` by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"amount must be non-negative, got {amount}")
        self._counters[name] += amount

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 if never incremented)."""
        return self._counters[name]

    def as_dict(self) -> Mapping[str, int]:
        """Snapshot of all counters."""
        return dict(self._counters)
