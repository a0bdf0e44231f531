"""`corpus.map_tasks` is `map`, in worker processes when given CPUs.

For any number of CPUs and tasks it yields `fn(task)` in task order, raises
a task's error in task order, forks one worker per CPU and at most one per
task, and leaves no worker alive when it ends, raises or is closed. A pool
that fails raises in task order too, and leaves no worker alive: a worker
that dies raises `BrokenProcessPool`, and a fork that fails its `OSError`,
also after other workers were forked. The callers answer both by reading
serially.
"""

import errno
import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from entkit.corpus import map_tasks

FORKS = []
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_parent=lambda: FORKS.append(1))
PARENT = os.getpid()


def _square(n):
    return n * n


def _fail_odd(n):
    """Task 1 fails after task 3 has failed, in another worker."""
    if n == 1:
        time.sleep(0.2)
    if n % 2:
        raise ValueError(f"task {n}")
    return n


@pytest.mark.parametrize("cpus", [0, 1, 2])
@pytest.mark.parametrize("n", range(6))
def test_map_tasks_equals_map(cpus, n):
    forks = len(FORKS)
    assert list(map_tasks(_square, range(n), cpus)) == list(map(_square, range(n)))
    assert multiprocessing.active_children() == []
    if hasattr(os, "register_at_fork") and multiprocessing.get_start_method() == "fork":
        assert len(FORKS) - forks == min(cpus, n)


@pytest.mark.parametrize("cpus", [0, 1, 2])
def test_a_failing_task_raises_in_task_order(cpus):
    results = map_tasks(_fail_odd, range(6), cpus)
    assert next(results) == 0
    with pytest.raises(ValueError, match="task 1"):
        next(results)
    results.close()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [0, 1, 2])
@pytest.mark.parametrize("after", [1, 6])
def test_closing_the_results_leaves_no_worker(cpus, after):
    results = map_tasks(_square, range(6), cpus)
    assert [next(results) for _ in range(after)] == [n * n for n in range(after)]
    results.close()
    assert multiprocessing.active_children() == []


def _dies_at_two(n):
    """Task 2 kills its worker, once tasks 0 and 1 are done."""
    if n == 2 and os.getpid() != PARENT:
        time.sleep(0.3)
        os._exit(1)
    return n * n


def _no_worker_left():
    """Whether no worker is alive; one that is gets terminated, so that a
    failure here cannot hang the suite at exit."""
    alive = multiprocessing.active_children()
    for worker in alive:
        worker.terminate()
        worker.join()
    return alive == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the worker tells itself from the parent by a forked pid")
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_dead_worker_raises_in_task_order(cpus):
    results = map_tasks(_dies_at_two, range(6), cpus)
    assert [next(results), next(results)] == [0, 1]
    with pytest.raises(BrokenProcessPool):
        next(results)
    assert _no_worker_left()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the failure is planted in os.fork")
@pytest.mark.parametrize("cpus, failing", [(1, 1), (2, 1), (2, 2), (3, 3)])
def test_a_failed_fork_raises_and_leaves_no_worker(monkeypatch, cpus, failing):
    """The `failing`-th fork raises, after `failing - 1` workers were forked."""
    fork, calls = os.fork, []

    def fork_until_failing():
        calls.append(1)
        if len(calls) == failing:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fork_until_failing)
    with pytest.raises(BlockingIOError):
        list(map_tasks(_square, range(6), cpus))
    assert len(calls) == failing
    assert _no_worker_left()
