"""`corpus.map_tasks` is `map`, in worker processes when given CPUs.

For any number of CPUs and tasks it yields `fn(task)` in task order, raises
a task's error in task order, forks one worker per CPU and at most one per
task, and leaves no worker alive when it ends, raises or is closed.
"""

import multiprocessing
import os
import time

import pytest

from entkit.corpus import map_tasks

FORKS = []
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_parent=lambda: FORKS.append(1))


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
