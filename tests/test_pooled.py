"""`corpus.pooled` is the one worker pool of the corpus commands.

With `corpus.pool_cpus` giving 0, 1 or 2 CPUs and 0-5 tasks, it returns the
serial merge of the tasks' `(fold, list)` parts in task order, whatever
order they arrive in, merging each part as it arrives rather than after
the last, and forks one worker per CPU and at most one per task. Where no
pool starts (no CPU or no task) it returns None, forks nothing and imports
no pool module. A pool that fails returns None too: a task's error, a
worker that exits and a fork that fails, also after other workers were
forked; no worker is left alive either way. The callers answer None with
the serial path.
"""

import errno
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from entkit import corpus

SRC = Path(__file__).resolve().parents[1] / "src"
FORKS = []
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_parent=lambda: FORKS.append(1))
PARENT = os.getpid()
FORKED = multiprocessing.get_start_method() == "fork"


class Total:
    """A fold of numbers: their sum, merged by addition."""

    def __init__(self, total):
        self.total = total

    def merge(self, other):
        self.total += other.total


def _part(n):
    """Task n's part; task 0 is the slowest, so the parts of two workers
    arrive out of task order."""
    if n == 0:
        time.sleep(0.05)
    return Total(n * n), [n] * n


def _cpus(monkeypatch, cpus):
    """Make `pool_cpus` give `cpus`; the sizes it is asked about."""
    sizes = []
    monkeypatch.setattr(corpus, "pool_cpus", lambda nbytes: sizes.append(nbytes) or cpus)
    return sizes


def _no_worker_left():
    """Whether no worker is alive; one that is gets terminated, so that a
    failure here cannot hang the suite at exit."""
    alive = multiprocessing.active_children()
    for worker in alive:
        worker.terminate()
        worker.join()
    return alive == []


@pytest.mark.parametrize("cpus", [0, 1, 2])
@pytest.mark.parametrize("n", range(6))
def test_pooled_is_the_serial_merge(monkeypatch, cpus, n):
    sizes = _cpus(monkeypatch, cpus)
    forks = len(FORKS)
    merged = corpus.pooled(_part, iter(range(n)), 123)
    if cpus and n:
        fold, items = merged
        assert fold.total == sum(k * k for k in range(n))
        assert items == [k for k in range(n) for _ in range(k)]
    else:
        assert merged is None
    assert sizes == [123]
    assert _no_worker_left()
    if hasattr(os, "register_at_fork") and FORKED:
        assert len(FORKS) - forks == min(cpus, n)


class Marker:
    """A fold whose merge creates the file `path`."""

    def __init__(self, path):
        self.path = path

    def merge(self, other):
        Path(self.path).touch()


def _waits_for_a_merge(task):
    """Task n's part; the last task waits up to 10 s for the parent to merge
    an earlier part, and says whether it did."""
    n, last, path = task
    deadline = time.monotonic() + 10
    while n == last and not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.01)
    return Marker(path), [os.path.exists(path) or n != last]


def test_pooled_merges_each_part_as_it_arrives(monkeypatch, tmp_path):
    """The first parts are merged while the last task runs, not after."""
    _cpus(monkeypatch, 2)
    marker = tmp_path / "merged"
    fold, seen = corpus.pooled(_waits_for_a_merge, [(n, 3, str(marker)) for n in range(4)], 0)
    assert seen == [True] * 4
    assert _no_worker_left()


def _fails_at_three(n):
    if n == 3:
        raise ValueError("task 3")
    return _part(n)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_task_gives_none(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    assert corpus.pooled(_fails_at_three, range(6), 0) is None
    assert _no_worker_left()


def _exits_at_two(n):
    """Task 2 kills its worker, once tasks 0 and 1 are done."""
    if n == 2 and os.getpid() != PARENT:
        time.sleep(0.1)
        os._exit(1)
    return _part(n)


@pytest.mark.skipif(not FORKED, reason="the worker tells itself from the parent by a forked pid")
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_dead_worker_gives_none(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    assert corpus.pooled(_exits_at_two, range(6), 0) is None
    assert _no_worker_left()


@pytest.mark.skipif(not FORKED, reason="the failure is planted in os.fork")
@pytest.mark.parametrize("cpus, failing", [(1, 1), (2, 1), (2, 2), (3, 3)])
def test_a_failed_fork_gives_none(monkeypatch, cpus, failing):
    """The `failing`-th fork raises, after `failing - 1` workers were forked."""
    fork, calls = os.fork, []

    def fork_until_failing():
        calls.append(1)
        if len(calls) == failing:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fork_until_failing)
    _cpus(monkeypatch, cpus)
    assert corpus.pooled(_part, range(6), 0) is None
    assert len(calls) == failing
    assert _no_worker_left()


NO_POOL_PROBE = """
import os, sys
from entkit import corpus
forks, read = [], []
os.register_at_fork(after_in_parent=lambda: forks.append(1))
cpus, n = map(int, sys.argv[1:])
corpus.pool_cpus = lambda nbytes: cpus
tasks = (read.append(k) or k for k in range(n))
print(corpus.pooled(divmod, tasks, 0), len(forks), read,
      sorted(m for m in sys.modules if m.partition(".")[0] in ("concurrent", "multiprocessing")))
"""


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="forks are not counted here")
@pytest.mark.parametrize("cpus, n", [(0, 0), (0, 5), (2, 0)])
def test_no_pool_forks_nothing_and_imports_no_pool_module(cpus, n):
    """Without a CPU no task is read either."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", NO_POOL_PROBE, str(cpus), str(n)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "None 0 [] []\n"
