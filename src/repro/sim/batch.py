"""Batch experiment runner: declarative specs in, archived results out.

Larger studies want to declare *what* to run, not write driver loops.
:func:`run_batch` takes a list of :class:`RunSpec` (or plain dicts, e.g.
parsed from a JSON file), executes each through the fluid simulator, and
returns a :class:`BatchResult` that renders as a table and serializes to
JSON for archiving.  The ``repro-nvm batch`` subcommand wraps it.

Spec fields mirror the CLI's vocabulary::

    [
      {"label": "paper point", "attack": "uaa", "sparing": "max-we"},
      {"label": "bpa on wawl", "attack": "bpa", "sparing": "max-we",
       "wearlevel": "wawl"},
      {"label": "unprotected", "attack": "uaa", "sparing": "none"}
    ]
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

from repro.attacks.suite import WORKLOAD_NAMES
from repro.sim.config import ExperimentConfig
from repro.sim.result import SimulationResult
from repro.sim.runner import (
    ATTACKS,
    SPARINGS,
    WEARLEVELERS,
    SimTask,
    build_attack,
    build_sparing,
    build_wearleveler,
    run_tasks,
)
from repro.util.tables import render_table
from repro.util.validation import require_fraction


@dataclass(frozen=True)
class RunSpec:
    """One declarative experiment.

    Attributes
    ----------
    label:
        Row label in the output table.
    attack:
        One of :data:`ATTACKS` or a workload-suite name.
    sparing:
        One of :data:`SPARINGS`.
    wearlevel:
        One of :data:`WEARLEVELERS`.
    p / swr:
        Spare fraction and SWR share (for the schemes that take them).
    """

    label: str
    attack: str = "uaa"
    sparing: str = "max-we"
    wearlevel: str = "none"
    p: float = 0.1
    swr: float = 0.9

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("spec needs a non-empty label")
        if self.attack not in ATTACKS and self.attack not in WORKLOAD_NAMES:
            raise ValueError(
                f"unknown attack {self.attack!r}; choose from {ATTACKS} "
                f"or the workload suite {WORKLOAD_NAMES}"
            )
        if self.sparing not in SPARINGS:
            raise ValueError(f"unknown sparing {self.sparing!r}; choose from {SPARINGS}")
        if self.wearlevel not in WEARLEVELERS:
            raise ValueError(
                f"unknown wearlevel {self.wearlevel!r}; choose from {WEARLEVELERS}"
            )
        require_fraction(self.p, "p")
        require_fraction(self.swr, "swr")

    @classmethod
    def from_dict(cls, payload: Dict) -> "RunSpec":
        """Build a spec from a plain dict (unknown keys rejected)."""
        allowed = {"label", "attack", "sparing", "wearlevel", "p", "swr"}
        unknown = set(payload) - allowed
        if unknown:
            raise ValueError(f"unknown spec fields {sorted(unknown)}")
        return cls(**payload)

    def to_dict(self) -> Dict:
        """Plain-dict form (the wire format; round-trips via ``from_dict``)."""
        return {
            "label": self.label,
            "attack": self.attack,
            "sparing": self.sparing,
            "wearlevel": self.wearlevel,
            "p": self.p,
            "swr": self.swr,
        }

    def build_attack(self):
        return build_attack(self.attack)

    def build_sparing(self):
        return build_sparing(self.sparing, self.p, self.swr)

    def build_wearleveler(self):
        return build_wearleveler(self.wearlevel)

    def to_task(self, config: ExperimentConfig) -> SimTask:
        """The declarative runner task equivalent to this spec."""
        return SimTask(
            attack=self.attack,
            sparing=self.sparing,
            wearlevel=self.wearlevel,
            p=self.p,
            swr=self.swr,
            config=config,
            label=self.label,
        )


@dataclass(frozen=True)
class BatchResult:
    """Results of a batch, in spec order."""

    specs: Sequence[RunSpec]
    results: Sequence[SimulationResult]
    config: ExperimentConfig = field(default_factory=ExperimentConfig)

    def __post_init__(self) -> None:
        if len(self.specs) != len(self.results):
            raise ValueError("specs and results must align")

    def __len__(self) -> int:
        return len(self.specs)

    def lifetime(self, label: str) -> float:
        """Normalized lifetime of the run labelled ``label``."""
        for spec, result in zip(self.specs, self.results):
            if spec.label == label:
                return result.normalized_lifetime
        raise KeyError(f"no run labelled {label!r}")

    def to_table(self) -> str:
        """Aligned text table of the batch."""
        rows = [
            [
                spec.label,
                spec.attack,
                spec.wearlevel,
                spec.sparing,
                result.normalized_lifetime,
            ]
            for spec, result in zip(self.specs, self.results)
        ]
        return render_table(
            ["label", "attack", "wearlevel", "sparing", "lifetime"],
            rows,
            title="batch results (normalized lifetime)",
        )

    def to_json(self, path: "str | Path | None" = None) -> str:
        """JSON archive of specs + results (timeline omitted for size)."""
        payload = {
            "config": {
                "regions": self.config.regions,
                "lines_per_region": self.config.lines_per_region,
                "q": self.config.q,
                "endurance_model": self.config.endurance_model,
                "seed": self.config.seed,
            },
            "runs": [
                {
                    "spec": spec.to_dict(),
                    "result": result.to_dict(include_timeline=False),
                }
                for spec, result in zip(self.specs, self.results)
            ],
        }
        text = json.dumps(payload, indent=2)
        if path is not None:
            Path(path).write_text(text)
        return text


def run_batch(
    specs: Sequence["RunSpec | Dict"],
    config: ExperimentConfig | None = None,
    **run,
) -> BatchResult:
    """Execute a list of specs against one device configuration.

    Parameters
    ----------
    specs:
        Declarative run specs (or plain dicts).
    config:
        Shared device configuration; its seed seeds every run, exactly
        as the historical serial loop did.
    **run:
        Execution options, forwarded to :func:`~repro.sim.runner.run_tasks`
        (the service streams partial results through its ``on_result``).
    """
    if not specs:
        raise ValueError("batch needs at least one spec")
    config = config if config is not None else ExperimentConfig()
    normalized: List[RunSpec] = [
        spec if isinstance(spec, RunSpec) else RunSpec.from_dict(spec)
        for spec in specs
    ]
    results = run_tasks([spec.to_task(config) for spec in normalized], **run)
    return BatchResult(specs=tuple(normalized), results=tuple(results), config=config)
