"""The run-scoped device memo: one map and one plan per device per run.

Inside :meth:`SimRunner.run` the tasks that share a device configuration
share its endurance map and its stacked Max-WE plan
(:mod:`repro.util.memo`).  These tests spy on the two builders and pin
the contract: one build per device per run, a new build for another
seed, shape or q, nothing kept once the run returns, and one memo per
thread.
"""

import gc
import threading
import weakref

import pytest

import repro.core.maxwe as maxwe_module
from repro.sim.batch import RunSpec, run_batch
from repro.sim.config import ExperimentConfig
from repro.sim.runner import SimTask, run_tasks

PAIR = (
    RunSpec("max-we/uaa", attack="uaa", sparing="max-we"),
    RunSpec("max-we/bpa", attack="bpa", sparing="max-we"),
)

CONFIG = ExperimentConfig(regions=256, lines_per_region=8, seed=3)


@pytest.fixture
def builds(monkeypatch):
    """Record every endurance map and stacked plan built."""
    built = {"maps": [], "plans": 0}
    make_emap = SimTask.make_emap
    stacked_plan = maxwe_module._stacked_plan

    def spy_emap(task):
        emap = make_emap(task)
        built["maps"].append(emap)
        return emap

    def spy_plan(*args):
        built["plans"] += 1
        return stacked_plan(*args)

    monkeypatch.setattr(SimTask, "make_emap", spy_emap)
    monkeypatch.setattr(maxwe_module, "_stacked_plan", spy_plan)
    return built


def test_the_pair_builds_one_map_and_one_plan(builds):
    run_batch(PAIR, CONFIG)
    assert (len(builds["maps"]), builds["plans"]) == (1, 1)


@pytest.mark.parametrize(
    "changes", [{"seed": 4}, {"regions": 128}, {"lines_per_region": 4}, {"q": 20.0}]
)
def test_another_device_builds_again(builds, changes):
    first = run_batch(PAIR, CONFIG)
    second = run_batch(PAIR, CONFIG.with_(**changes))
    assert (len(builds["maps"]), builds["plans"]) == (2, 2)
    assert first.to_json() != second.to_json()


def test_a_run_holds_only_the_last_device(builds):
    """Alternating devices in one run rebuild each time: the memo keeps
    one map and one plan, not every device the run has seen."""
    other = CONFIG.with_(seed=4)
    tasks = [
        spec.to_task(config) for config in (CONFIG, other, CONFIG) for spec in PAIR
    ]
    run_tasks(tasks)
    assert (len(builds["maps"]), builds["plans"]) == (3, 3)


def test_nothing_outlives_the_run(builds):
    run_batch(PAIR, CONFIG)
    [emap] = builds["maps"]
    ref = weakref.ref(emap)
    builds["maps"].clear()
    del emap
    gc.collect()
    assert ref() is None


def test_threads_keep_their_own_device():
    """The job service runs batches on two dispatcher threads: each
    thread's run sees only its own device, and its results are the
    serial ones."""
    configs = [CONFIG, CONFIG.with_(seed=11, regions=128)]
    expected = [run_batch(PAIR, config).to_json() for config in configs]
    rounds = 4
    barrier = threading.Barrier(len(configs))
    seen = [[] for _ in configs]

    def work(index):
        for _ in range(rounds):
            barrier.wait()
            seen[index].append(run_batch(PAIR, configs[index]).to_json())

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(configs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert seen == [[body] * rounds for body in expected]
