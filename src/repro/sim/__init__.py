"""Lifetime simulation (the paper's "NVMsim").

The paper evaluates every scheme with a simulator that "generates the
read/write requests according to the attack models" and reports the
*normalized lifetime*: total writes served before the device fails,
divided by the summed endurance of all memory lines.

Two simulators are provided:

* :class:`~repro.sim.lifetime.LifetimeSimulator` -- the fluid
  (mean-field) engine: the vectorized epoch kernel, one device per
  run (``fluid-batched``, the default; ``fluid-ensemble`` runs the same
  code under its own result label, see
  :data:`~repro.sim.lifetime.ENGINES`).
  Wear-leveling schemes contribute their stationary wear distribution,
  sparing schemes handle deaths through the batched replacement API,
  and lifetimes are computed exactly under the stationary
  approximation.  This is what all benchmark figures use.
* :class:`~repro.sim.reference.ReferenceSimulator` -- an exact per-write
  simulator over a real :class:`~repro.device.bank.NVMBank` with real
  wear-leveling mechanisms.  Slow, so used on small devices to validate
  the fluid engine (see ``tests/sim/test_fluid_vs_reference.py``).

:func:`~repro.sim.reference.exact_lifetime` is the fluid model's
oracle: the same run advanced by a scalar event loop, one death at a
time.  The shadow audit (``shadow_sample``) and the differential tests
check the kernel against it.

:mod:`repro.sim.experiments` holds the paper's experiment configurations
and the sweep drivers behind Figures 6-8.
"""

from repro.sim.cache import CACHE_SCHEMA_VERSION, CacheStats, ResultCache
from repro.sim.config import ExperimentConfig, default_endurance_map
from repro.sim.lifetime import (
    ENGINES,
    LifetimeSimulator,
    normalize_engine,
    simulate_lifetime,
)
from repro.sim.reference import ReferenceSimulator, exact_lifetime
from repro.sim.result import SimulationResult
from repro.sim.runner import (
    CallableTask,
    RunnerStats,
    SimRunner,
    SimTask,
    fork_task_seeds,
    run_tasks,
)
from repro.sim.experiments import (
    bpa_scheme_comparison,
    spare_fraction_sweep,
    swr_fraction_sweep,
    uaa_scheme_comparison,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "ResultCache",
    "ExperimentConfig",
    "default_endurance_map",
    "ENGINES",
    "LifetimeSimulator",
    "normalize_engine",
    "simulate_lifetime",
    "ReferenceSimulator",
    "exact_lifetime",
    "SimulationResult",
    "CallableTask",
    "RunnerStats",
    "SimRunner",
    "SimTask",
    "fork_task_seeds",
    "run_tasks",
    "bpa_scheme_comparison",
    "spare_fraction_sweep",
    "swr_fraction_sweep",
    "uaa_scheme_comparison",
]
