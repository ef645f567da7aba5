"""Every evaluation driver takes the same execution options.

The options are declared once: the task options by
:func:`repro.sim.runner.run_tasks` and the runner options by
:class:`repro.sim.runner.SimRunner`'s constructor.  Each driver forwards
them, so every driver accepts every option, and each option reaches
either the runner or every task the runner is handed.
"""

import functools
import inspect
from types import SimpleNamespace

import pytest

from repro.attacks.uaa import UniformAddressAttack
from repro.core.maxwe import MaxWE
from repro.sim import experiments
from repro.sim.batch import RunSpec, run_batch
from repro.sim.config import ExperimentConfig
from repro.sim.montecarlo import monte_carlo_lifetime
from repro.sim.runner import SimRunner, run_tasks
from repro.sim.sensitivity import sensitivity_analysis

CONFIG = ExperimentConfig(regions=64, lines_per_region=2, seed=3)

DRIVERS = {
    "spare_fraction_sweep": lambda **run: experiments.spare_fraction_sweep(
        CONFIG, fractions=(0.0, 0.1), **run
    ),
    "swr_fraction_sweep": lambda **run: experiments.swr_fraction_sweep(
        CONFIG, swr_fractions=(0.9,), wearlevelers=("tlsr", "bwl"), **run
    ),
    "bpa_scheme_comparison": lambda **run: experiments.bpa_scheme_comparison(
        CONFIG, wearlevelers=("tlsr",), sparing_names=("pcd-ps", "max-we"), **run
    ),
    "uaa_scheme_comparison": lambda **run: experiments.uaa_scheme_comparison(
        CONFIG, **run
    ),
    "run_batch": lambda **run: run_batch(
        [RunSpec("a"), RunSpec("b", sparing="none")], CONFIG, **run
    ),
    "monte_carlo_lifetime": lambda **run: monte_carlo_lifetime(
        UniformAddressAttack,
        functools.partial(MaxWE, 0.1, 0.9),
        config=CONFIG,
        replicas=2,
        **run,
    ),
    "sensitivity_analysis": lambda **run: sensitivity_analysis(
        CONFIG, parameters=("q",), **run
    ),
}

#: Non-default values of the options stamped on every task.
TASK_OPTIONS = {"engine": "fluid-ensemble", "paranoia": "cheap", "shadow_sample": 0.25}

#: The runner options, read off the constructor that declares them.
RUNNER_DEFAULTS = {
    name: parameter.default
    for name, parameter in inspect.signature(SimRunner.__init__).parameters.items()
    if name != "self"
}


def test_run_tasks_declares_the_task_options():
    declared = {
        name: parameter.default
        for name, parameter in inspect.signature(run_tasks).parameters.items()
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY
    }
    assert set(declared) == set(TASK_OPTIONS)
    assert not set(declared) & set(RUNNER_DEFAULTS)


@pytest.fixture
def spy(monkeypatch):
    """Record each runner's constructor keywords and the tasks it runs."""
    seen = {"runners": [], "tasks": []}

    def init(self, **kwargs):
        seen["runners"].append(kwargs)

    def run(self, tasks):
        seen["tasks"].extend(tasks)
        return [SimpleNamespace(normalized_lifetime=0.5) for _ in tasks]

    monkeypatch.setattr(SimRunner, "__init__", init)
    monkeypatch.setattr(SimRunner, "run", run)
    return seen


@pytest.mark.parametrize("option", sorted(RUNNER_DEFAULTS))
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_runner_option_reaches_the_runner(spy, driver, option):
    value = object()
    DRIVERS[driver](**{option: value})
    [kwargs] = spy["runners"]
    assert kwargs.get(option) is value
    for name, passed in kwargs.items():
        if name != option:
            assert passed == RUNNER_DEFAULTS[name], name
    assert spy["tasks"]


@pytest.mark.parametrize("option", sorted(TASK_OPTIONS))
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_task_option_reaches_every_task(spy, driver, option):
    value = TASK_OPTIONS[option]
    DRIVERS[driver](**{option: value})
    assert len(spy["runners"]) == 1
    assert spy["tasks"]
    for task in spy["tasks"]:
        assert getattr(task, option) == value


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_unknown_option_is_a_type_error(driver):
    with pytest.raises(TypeError, match="bogus"):
        DRIVERS[driver](bogus=1)
