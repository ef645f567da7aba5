"""Sparing-scheme interface shared by the fluid and exact simulators.

The lifetime engine drives a sparing scheme through three phases:

1. :meth:`SpareScheme.initialize` with the device's endurance map --
   the scheme partitions lines into the in-service set (slots) and its
   spare pool;
2. the engine applies wear to the lines backing each slot;
3. on a backing line's death the engine calls :meth:`SpareScheme.replace`
   and acts on the returned :class:`Replacement`:
   :class:`ReplaceWith` (redirect the slot to a spare line),
   :class:`RemoveSlot` (capacity degradation), or
   :class:`FailDevice` (the write cannot be completed -- Section 4.2's
   failure criterion).

Device failure is also declared by the engine when the number of live
slots drops below :attr:`SpareScheme.min_user_slots`.

**Batched sparing.**  The vectorized (``fluid-batched``) engine delivers
deaths in chronological groups through :meth:`SpareScheme.replace_batch`,
which returns a :class:`BatchOutcome` -- the array form of a list of
:class:`Replacement` verbs.  The base implementation simply loops the
scalar :meth:`SpareScheme.replace`, so third-party schemes keep working
unmodified (correct, just not vectorized); the built-in schemes override
it with numpy implementations.  A scheme that can replace (or extend)
should also override :meth:`SpareScheme.replacement_extra_floor` with a
lower bound on the wear budget any single future replacement adds: the
engine uses it to size chronologically-safe death batches (see
``sim/lifetime.py``).  Returning ``None`` (the default) makes the engine
fall back to one-death-at-a-time delivery.

**Kernel scheme state.**  Every fluid run is initialized and advanced
through a :class:`BatchedSchemeState` (see ``sim/ensemble.py``): a lean
array form where the scheme family has one (Max-WE), else a
:class:`FallbackSchemeState` wrapping the real initialized instance --
also for every run the paranoia guards drive, and for the scalar oracle
(:func:`~repro.sim.reference.exact_lifetime`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.endurance.emap import EnduranceMap
from repro.util.rng import RandomState, derive_rng
from repro.util.validation import require_fraction


class SchemeIntegrityError(RuntimeError):
    """A scheme's internal tables failed an integrity check.

    Raised by :meth:`SpareScheme.check_integrity` and converted by the
    verification layer into a structured
    :class:`~repro.verify.invariants.InvariantViolation`.
    """


@dataclass(frozen=True)
class ReplaceWith:
    """Redirect the slot to spare line ``line``."""

    line: int


@dataclass(frozen=True)
class RemoveSlot:
    """Retire the slot; remaining traffic spreads over surviving slots."""


@dataclass(frozen=True)
class ExtendBudget:
    """Repair the line in place, extending its wear budget by ``wear``.

    This is the salvaging verb (Section 2.2.2): error-correcting
    redundancy absorbs the first cell failures so the same line keeps
    serving, with a little extra life.
    """

    wear: float

    def __post_init__(self) -> None:
        if self.wear <= 0:
            raise ValueError(f"budget extension must be positive, got {self.wear}")


@dataclass(frozen=True)
class FailDevice:
    """The replacement procedure failed; the device is worn out."""

    reason: str


Replacement = ReplaceWith | RemoveSlot | ExtendBudget | FailDevice

#: Action codes of :class:`BatchOutcome` (array form of the verbs above).
BATCH_REPLACE: int = 0
BATCH_EXTEND: int = 1
BATCH_REMOVE: int = 2
BATCH_FAIL: int = 3


@dataclass(frozen=True)
class BatchOutcome:
    """Vectorized replacement verdicts for one chronological death batch.

    Position ``k`` of every array answers death ``k`` of the batch passed
    to :meth:`SpareScheme.replace_batch`.  A scheme that fails the device
    mid-batch truncates its answer: the arrays cover only the deaths it
    processed, the last action is :data:`BATCH_FAIL`, and the engine never
    looks at the unprocessed tail.

    Attributes
    ----------
    actions:
        ``int8`` action code per death (:data:`BATCH_REPLACE`,
        :data:`BATCH_EXTEND`, :data:`BATCH_REMOVE`, :data:`BATCH_FAIL`).
    lines:
        Replacement line per :data:`BATCH_REPLACE` death (-1 elsewhere).
    wear:
        Budget extension per :data:`BATCH_EXTEND` death (0 elsewhere).
    fail_reason:
        Failure reason iff the last action is :data:`BATCH_FAIL`.
    """

    actions: np.ndarray
    lines: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    wear: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=float))
    fail_reason: Optional[str] = None

    def __post_init__(self) -> None:
        actions = np.asarray(self.actions, dtype=np.int8)
        object.__setattr__(self, "actions", actions)
        lines = np.asarray(self.lines, dtype=np.intp)
        if lines.size == 0 and actions.size:
            lines = np.full(actions.size, -1, dtype=np.intp)
        object.__setattr__(self, "lines", lines)
        wear = np.asarray(self.wear, dtype=float)
        if wear.size == 0 and actions.size:
            wear = np.zeros(actions.size, dtype=float)
        object.__setattr__(self, "wear", wear)
        if actions.size == 0:
            raise ValueError("a batch outcome must cover at least one death")
        if lines.size != actions.size or wear.size != actions.size:
            raise ValueError("batch outcome arrays must be index-aligned")
        fails = np.flatnonzero(actions == BATCH_FAIL)
        if fails.size > 1 or (fails.size == 1 and fails[0] != actions.size - 1):
            raise ValueError("BATCH_FAIL may only appear once, as the last action")
        if (fails.size == 1) != (self.fail_reason is not None):
            raise ValueError("fail_reason must accompany exactly a trailing BATCH_FAIL")

    @property
    def size(self) -> int:
        """Number of deaths this outcome covers."""
        return int(self.actions.size)

    @property
    def failed(self) -> bool:
        """Whether the batch ended in device failure."""
        return self.fail_reason is not None

    # ------------------------------------------------------------------
    # Constructors for the common uniform batches
    # ------------------------------------------------------------------

    @classmethod
    def all_replaced(cls, lines: np.ndarray) -> "BatchOutcome":
        """Every death rescued by the index-aligned ``lines``."""
        lines = np.asarray(lines, dtype=np.intp)
        return cls(actions=np.full(lines.size, BATCH_REPLACE, dtype=np.int8), lines=lines)

    @classmethod
    def all_removed(cls, count: int) -> "BatchOutcome":
        """Every death retired (capacity degradation)."""
        return cls(actions=np.full(count, BATCH_REMOVE, dtype=np.int8))

    @classmethod
    def replaced_then_fail(cls, lines: np.ndarray, reason: str) -> "BatchOutcome":
        """``lines.size`` rescues followed by device failure."""
        lines = np.asarray(lines, dtype=np.intp)
        actions = np.full(lines.size + 1, BATCH_REPLACE, dtype=np.int8)
        actions[-1] = BATCH_FAIL
        return cls(
            actions=actions,
            lines=np.append(lines, np.intp(-1)),
            fail_reason=reason,
        )

    @classmethod
    def fail(cls, reason: str) -> "BatchOutcome":
        """The first death of the batch already kills the device."""
        return cls(actions=np.array([BATCH_FAIL], dtype=np.int8), fail_reason=reason)


class SpareScheme(ABC):
    """Base class for spare-line replacement schemes.

    Parameters
    ----------
    spare_fraction:
        Fraction ``p = S / N`` of total lines held as spares (0 for
        schemes without excess capacity).
    """

    #: Short machine-readable name used in result tables.
    name: str = "sparing"

    #: Epoch-kernel hint: ``True`` promises :meth:`replace_batch` never
    #: returns :data:`BATCH_REMOVE` (the scheme replaces or fails, it does
    #: not degrade capacity).  The kernel uses the promise to skip
    #: per-epoch capacity bookkeeping; a scheme that removes slots must
    #: leave this ``False``.
    ensemble_never_removes: bool = False

    def __init__(self, spare_fraction: float = 0.0) -> None:
        require_fraction(spare_fraction, "spare_fraction")
        if spare_fraction >= 1.0:
            raise ValueError("spare_fraction must leave room for user space")
        self._spare_fraction = spare_fraction
        self._emap: EnduranceMap | None = None
        self._rng: np.random.Generator | None = None
        self._backing: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def spare_fraction(self) -> float:
        """Configured spare fraction ``p``."""
        return self._spare_fraction

    def spare_lines(self, total_lines: int) -> int:
        """Spare line count ``S`` for a device of ``total_lines``."""
        return int(round(self._spare_fraction * total_lines))

    def initialize(self, emap: EnduranceMap, rng: RandomState = None) -> None:
        """Partition the device and build the scheme's internal state."""
        self._emap = emap
        self._rng = derive_rng(rng, f"sparing-{self.name}")
        self._backing = self._build_backing()
        if self._backing.ndim != 1 or self._backing.size == 0:
            raise ValueError("scheme produced an empty backing array")

    @abstractmethod
    def _build_backing(self) -> np.ndarray:
        """Initial slot -> physical-line assignment (in-service lines)."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def emap(self) -> EnduranceMap:
        """The endurance map the scheme was initialized with."""
        self._require_initialized()
        assert self._emap is not None
        return self._emap

    @property
    def initial_backing(self) -> np.ndarray:
        """Copy of the initial slot-to-line assignment."""
        self._require_initialized()
        assert self._backing is not None
        return self._backing.copy()

    @property
    def slots(self) -> int:
        """Number of slots initially in service."""
        self._require_initialized()
        assert self._backing is not None
        return int(self._backing.size)

    @property
    def min_user_slots(self) -> int:
        """Live slots required for the device to stay serviceable.

        Defaults to the user capacity ``N - S``; schemes whose slots never
        shrink fail through :class:`FailDevice` instead.
        """
        self._require_initialized()
        assert self._emap is not None
        return self._emap.lines - self.spare_lines(self._emap.lines)

    def _require_initialized(self) -> None:
        if self._emap is None:
            raise RuntimeError(f"{type(self).__name__} used before initialize()")

    # ------------------------------------------------------------------
    # Integrity introspection (the verification layer's view)
    # ------------------------------------------------------------------

    def pool_accounting(self) -> Optional[Mapping[str, int]]:
        """O(1)-ish spare-pool counters for the accounting invariant.

        Schemes with an explicit spare pool return a mapping with at
        least ``size`` / ``free`` / ``allocated`` (``free + allocated ==
        size`` must hold); pool-backed mapping tables may add
        ``lmt_entries`` / ``lmt_capacity`` / ``rescued_slots``.  The
        default ``None`` skips the invariant for pool-less schemes.
        """
        return None

    def check_integrity(
        self,
        backing: Optional[np.ndarray] = None,
        dead_lines: Optional[np.ndarray] = None,
    ) -> None:
        """Verify the scheme's internal tables; raise on inconsistency.

        Called by the verification layer's ``mapping-consistency``
        invariant.  ``backing`` is the engine's live slot-to-line
        assignment and ``dead_lines`` a boolean per-line death mask;
        either may be ``None`` when unavailable.  Implementations must
        raise :class:`SchemeIntegrityError` (never mutate state) on the
        first inconsistency.  The base implementation checks only the
        generic slot-count contract.
        """
        self._require_initialized()
        assert self._backing is not None
        if backing is not None and backing.size != self._backing.size:
            raise SchemeIntegrityError(
                f"engine tracks {backing.size} slots but the scheme was "
                f"initialized with {self._backing.size}"
            )

    # ------------------------------------------------------------------
    # Replacement
    # ------------------------------------------------------------------

    @abstractmethod
    def replace(self, slot: int, dead_line: int) -> Replacement:
        """React to the death of ``dead_line`` backing ``slot``."""

    def replace_batch(
        self, slots: Sequence[int], dead_lines: Sequence[int]
    ) -> BatchOutcome:
        """React to a chronologically ordered batch of deaths at once.

        The engine guarantees the batch is sorted in event order (virtual
        death time, ties by slot id) and that no slot appears twice.  This
        base implementation loops the scalar :meth:`replace`, truncating at
        the first :class:`FailDevice`, so any scheme works unmodified;
        built-in schemes override it with vectorized versions.
        """
        count = len(slots)
        actions = np.empty(count, dtype=np.int8)
        lines = np.full(count, -1, dtype=np.intp)
        wear = np.zeros(count, dtype=float)
        for index, (slot, dead_line) in enumerate(zip(slots, dead_lines)):
            outcome = self.replace(int(slot), int(dead_line))
            if isinstance(outcome, ReplaceWith):
                actions[index] = BATCH_REPLACE
                lines[index] = outcome.line
            elif isinstance(outcome, ExtendBudget):
                actions[index] = BATCH_EXTEND
                wear[index] = outcome.wear
            elif isinstance(outcome, RemoveSlot):
                actions[index] = BATCH_REMOVE
            else:
                assert isinstance(outcome, FailDevice)
                actions[index] = BATCH_FAIL
                end = index + 1
                return BatchOutcome(
                    actions=actions[:end],
                    lines=lines[:end],
                    wear=wear[:end],
                    fail_reason=outcome.reason,
                )
        return BatchOutcome(actions=actions, lines=lines, wear=wear)

    def replacement_extra_floor(self) -> Optional[float]:
        """Lower bound on the wear budget any one future replacement adds.

        The batched engine may only group deaths whose times span less
        than ``floor / max_weight``: within such a window no replacement
        (:class:`ReplaceWith` endurance or :class:`ExtendBudget` wear) can
        push a slot's next death back inside the window, so processing the
        group in one :meth:`replace_batch` call preserves exact event
        order.  ``math.inf`` is correct for schemes that never replace;
        ``None`` (the default) means unknown, and the engine delivers
        deaths one at a time.

        The engine may *tighten* ``max_weight`` to the largest weight
        among slots that can still die (slots retired by removal
        verdicts leave the prone set for good), so the window this
        floor buys lengthens as heavy slots retire.  The floor must
        therefore bound the budget of replacements on *any still-prone
        slot*, which every fixed lower bound already satisfies.
        """
        return None

    def ensemble_replacement_capacity(self) -> Optional[int]:
        """Upper bound on future :data:`BATCH_REPLACE`/:data:`BATCH_EXTEND`
        verdicts this scheme can still hand out.

        With :attr:`ensemble_never_removes` schemes, only slots whose
        death times fall among the ``capacity + BATCH_LIMIT`` smallest can
        ever be selected before the device fails, so the epoch kernel
        uses this bound to restrict its per-epoch scans to that candidate
        set (see ``sim/ensemble.py``).  Must be an over-estimate, never an
        under-estimate; ``None`` (the default) disables the prefilter.
        """
        return None

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        return f"{self.name} (p={self._spare_fraction:.0%})"

    # ------------------------------------------------------------------
    # Kernel scheme state
    # ------------------------------------------------------------------

    @classmethod
    def make_batched_state(
        cls, scheme: "SpareScheme", emap: EnduranceMap
    ) -> Optional["BatchedSchemeState"]:
        """Build a ledger-free kernel state for ``scheme`` on ``emap``.

        ``scheme`` is the run's (uninitialized) scheme.  A scheme family
        whose replacement bookkeeping has a leaner array form overrides
        this to return a :class:`BatchedSchemeState`; returning ``None``
        (the default) makes the engine initialize ``scheme`` itself and
        wrap it in :class:`FallbackSchemeState` -- correct for every
        scheme, just without the lean state.
        """
        return None


#: A run lookahead, ``(lines, fail_reason)``: see :class:`BatchedSchemeState`.
Lookahead = Tuple[np.ndarray, Optional[str]]

#: The raw verdict tuple a :class:`BatchedSchemeState` returns:
#: ``(actions, lines, wear, fail_reason)`` with the exact semantics of the
#: matching :class:`BatchOutcome` fields.  Lean states return the plain
#: tuple so the hot loop skips dataclass construction and validation.
RawBatchOutcome = Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[str]]


class BatchedSchemeState(ABC):
    """One run's sparing state, as the batched epoch kernel drives it.

    The kernel (``sim/ensemble.py``) advances every fluid run through
    this protocol.  It is the scheme-side contract: every method must
    behave *bit-identically* to a fresh scheme instance initialized for
    the run -- same backing permutation, same replacement decisions,
    same failure strings -- so a run on a lean state is
    indistinguishable from one on the real scheme.

    **Lookahead.**  Under concentrated wear one slot dies over and over
    while every other slot waits, and the kernel settles such a chain of
    one-death epochs (a *run*) in one vectorized step.  It asks
    :meth:`lookahead` which lines the slot's next deaths would get:
    death 0 is ``dead_line``'s, happening now, and death ``j > 0`` is the
    death of the line that death ``j - 1`` handed out, assuming no other
    slot dies in between.  The answer ``(lines, fail_reason)`` holds at
    most ``limit`` lines (at least one, unless the first death already
    fails); ``lines[j]`` is the :class:`ReplaceWith` line
    :meth:`replace` would return for death ``j``, and a non-``None``
    ``fail_reason`` means death ``len(lines)`` would return
    ``FailDevice(fail_reason)``.  Nothing is mutated: the kernel keeps
    the prefix of deaths that are one-death epochs of their own and then
    calls :meth:`commit_lookahead` once with their count (at least 1, at
    most ``len(lines)``, plus 1 with a failure), which must leave exactly
    the state that many :meth:`replace` calls would.  Returning ``None``
    (the default) declines: the kernel decides the death through
    :meth:`replace`.  A state decides what it cannot express as lines
    (budget extensions, removals) the same way.  Only
    :class:`~repro.core.maxwe.MaxWEStackedState` implements it; the
    fallback state declines, so other schemes settle every death through
    :meth:`replace`.
    """

    @property
    @abstractmethod
    def never_removes(self) -> bool:
        """True iff the scheme can never return :data:`BATCH_REMOVE`."""

    @abstractmethod
    def backing(self) -> np.ndarray:
        """The initial slot-to-line map.

        A lean state may share it across runs, read-only; callers copy
        it before writing.
        """

    def initial_arrays(
        self, endurance: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """``(backing, budgets, total_endurance)`` of the run.

        ``budgets`` is ``endurance[backing]`` and ``total_endurance`` is
        ``float(endurance.sum())``; like :meth:`backing`, the arrays may
        be shared and read-only.
        """
        backing = self.backing()
        return backing, endurance[backing], float(endurance.sum())

    @abstractmethod
    def min_user_slots(self) -> int:
        """Minimum serviceable slot count."""

    @abstractmethod
    def replace_batch(
        self, slots: np.ndarray, dead_lines: np.ndarray
    ) -> RawBatchOutcome:
        """Raw-tuple equivalent of :meth:`SpareScheme.replace_batch`."""

    @abstractmethod
    def replace(self, slot: int, dead_line: int) -> Replacement:
        """Equivalent of :meth:`SpareScheme.replace`.

        The kernel's one-death epochs (the BPA sequential regime) and the
        oracle's scalar event loop decide deaths one at a time through it.
        """

    @abstractmethod
    def replacement_extra_floor(self) -> Optional[float]:
        """Equivalent of :meth:`SpareScheme.replacement_extra_floor`."""

    @abstractmethod
    def describe(self) -> str:
        """Equivalent of :meth:`SpareScheme.describe`."""

    def replacement_capacity(self) -> Optional[int]:
        """Equivalent of :meth:`SpareScheme.ensemble_replacement_capacity`."""
        return None

    def lookahead(
        self, slot: int, dead_line: int, limit: int
    ) -> Optional[Lookahead]:
        """The lines ``slot`` would get next (see above)."""
        return None

    def commit_lookahead(self, slot: int, dead_line: int, deaths: int) -> None:
        """Decide the first ``deaths`` deaths of the last lookahead."""
        raise NotImplementedError(f"{type(self).__name__} has no lookahead")

    def scheme(self) -> Optional[SpareScheme]:
        """The real initialized scheme instance behind the state, if any.

        The fallback state exposes its wrapped instance so the paranoia
        guards can run ``pool_accounting``/``check_integrity`` against
        genuine scheme tables; lean states return ``None`` (they are
        only used when guards are off).
        """
        return None


class FallbackSchemeState(BatchedSchemeState):
    """Kernel scheme state backed by a real scheme instance.

    The universal path: the run keeps its own initialized
    :class:`SpareScheme`, so any scheme -- including third-party scalar
    ones -- runs under the kernel with exactly its own semantics.
    ``scheme`` must already be initialized with the run's endurance map
    and rng stream.
    """

    def __init__(self, scheme: SpareScheme) -> None:
        self._scheme = scheme

    @property
    def never_removes(self) -> bool:
        return type(self._scheme).ensemble_never_removes

    def backing(self) -> np.ndarray:
        return self._scheme.initial_backing

    def min_user_slots(self) -> int:
        return self._scheme.min_user_slots

    def replace_batch(
        self, slots: np.ndarray, dead_lines: np.ndarray
    ) -> RawBatchOutcome:
        outcome = self._scheme.replace_batch(slots, dead_lines)
        return outcome.actions, outcome.lines, outcome.wear, outcome.fail_reason

    def replace(self, slot: int, dead_line: int) -> Replacement:
        return self._scheme.replace(slot, dead_line)

    def replacement_extra_floor(self) -> Optional[float]:
        return self._scheme.replacement_extra_floor()

    def replacement_capacity(self) -> Optional[int]:
        return self._scheme.ensemble_replacement_capacity()

    def describe(self) -> str:
        return self._scheme.describe()

    def scheme(self) -> Optional[SpareScheme]:
        return self._scheme
