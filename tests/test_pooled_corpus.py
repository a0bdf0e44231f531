"""`validate`, `stats` and `rules check` give the same answer pooled and serial.

With `corpus.POOL_MIN_BYTES` at 0 the single-corpus commands fold runs of
lines in worker processes wherever there is more than one CPU
(`corpus.fold_files`); with it above the input's size they read the corpus
serially, the reference. Each command must print the same stdout and stderr,
write the same `--plot-data` TSV and exit with the same code both ways, on
the golden fixtures and on planted inputs: a bad JSON line or a validation
error in a later run, a document id repeated across runs, blank lines, a
warning only and a directory corpus. Where the serial reader accepts every
run and no id repeats, the pooled fold stands without a serial rerun;
`validate`'s stands on a repeated id too. No worker is left alive.

A pool that fails costs no output: after a worker dies, as one the
out-of-memory killer stops, or a fork fails, as one at the process limit
does, every pooled command, `convert` included, prints and writes what it
does serially and exits with the same code, and no worker is left alive.
The failed fork runs in a child process that must exit in time, so a
worker left waiting fails the test instead of hanging the suite.

Each fold the single-corpus commands merge gives, for any split of a
document list, the result of one fold over the whole list.
"""

import contextlib
import io
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entkit import cli, corpus, dwie, rules, stats
from test_oracle_properties import documents

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[1] / "src"
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count() or 1
FORKS = []
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_parent=lambda: FORKS.append(1))
POOLS = CPUS > 1 and hasattr(os, "register_at_fork")
PARENT = os.getpid()

COMMANDS = [
    ["validate", "{c}"],
    ["validate", "{c}", "--strict"],
    ["stats", "{c}", "--plot-data", "{tsv}"],
    ["rules", "check", "{c}", "--closure"],
    ["rules", "check", "{c}", "--closure", "--strict"],
    ["rules", "check", "{c}", "--rules", "{bad_rules}"],
]


def _base():
    """Nine valid documents with distinct ids: runs of 2, 2, 2, 2 and 1 lines
    at ITEMS_PER_TASK 2."""
    lines = []
    for name in ("annotator_a", "rules_multi", "ok", "missing_head"):
        with open(FIXTURES / f"{name}.jsonl", encoding="utf-8") as fh:
            lines += [json.loads(line) for line in fh]
    return lines


def _edit(records, i, change):
    change(records[i])
    return records


def _lines(records):
    return [json.dumps(obj) + "\n" for obj in records]


def _inputs(case):
    """The lines of the corpus of `case`."""
    records = _base()
    if case == "bad line in a later run":
        return [*_lines(records)[:6], '{"id": \n', *_lines(records)[7:]]
    if case == "finding in a later run":
        return _lines(_edit(records, 6, lambda obj: obj["clusters"][0]["mentions"][0].reverse()))
    if case == "id repeated across runs":
        return _lines(_edit(records, 7, lambda obj: obj.__setitem__("id", "g1")))
    if case == "blank lines":
        lines = _lines(records)
        return [*lines[:3], "\n", *lines[3:6], "  \r\n", *lines[6:], "\t\n"]
    if case == "warning only":  # an unknown tag
        return _lines(_edit(records, 5, lambda obj: obj["clusters"][0]["tags"].append("xyz")))
    return _lines(records)


CASES = ["golden", "bad line in a later run", "finding in a later run",
         "id repeated across runs", "blank lines", "warning only", "directory"]
STANDS = {"golden", "blank lines", "warning only"}  # no serial rerun


def _paths(tmp_path, case):
    lines = _inputs(case)
    c = tmp_path / "c.jsonl"
    c.write_text("".join(lines), encoding="utf-8")
    if case == "directory":
        c = tmp_path / "c"
        c.mkdir()
        for i, line in enumerate(lines):
            (c / f"{i}.json").write_text(line, encoding="utf-8")
    bad_rules = tmp_path / "bad_rules.txt"
    bad_rules.write_text("in0(X, Y) => \n", encoding="utf-8")
    return {"c": c, "tsv": tmp_path / "out.tsv", "bad_rules": bad_rules}


def _counting(calls, fn):
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return counted


def _run(argv, tsv=None):
    """Exit code, stdout, stderr and the TSV at `tsv` (None if not written)."""
    if tsv is not None and tsv.exists():
        tsv.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    written = tsv.read_bytes() if tsv is not None and tsv.exists() else None
    return code, out.getvalue(), err.getvalue(), written


@pytest.mark.parametrize("case", CASES)
def test_pooled_single_corpus_commands_equal_the_serial_reader(tmp_path, monkeypatch, case):
    paths = _paths(tmp_path, case)
    for command in COMMANDS:
        argv = [arg.format(**paths) for arg in command]
        monkeypatch.setattr(corpus, "POOL_MIN_BYTES", 1 << 60)
        serial = _run(argv, paths["tsv"])
        monkeypatch.setattr(corpus, "POOL_MIN_BYTES", 0)
        monkeypatch.setattr(corpus, "ITEMS_PER_TASK", 2)
        reruns = []
        for name in ("iter_valid_corpus", "iter_corpus"):
            monkeypatch.setattr(corpus, name, _counting(reruns, getattr(corpus, name)))
        forks = len(FORKS)
        pooled = _run(argv, paths["tsv"])
        forked = len(FORKS) > forks
        monkeypatch.undo()
        assert pooled == serial, argv
        assert multiprocessing.active_children() == []
        assert forked == (POOLS and case != "directory"), argv
        stands = case in STANDS or (command[0] == "validate" and case in (
            "finding in a later run", "id repeated across runs"))
        if forked and stands:
            assert reruns == [], argv
        code, out, err, tsv = serial
        assert (code, err.count("\n")) == _serial_outcome(case, command), (argv, serial)
        assert (out == "") == (code == 2)
        assert (tsv is not None) == (command[0] == "stats" and code == 0)


def _serial_outcome(case, command):
    """The exit code and the number of stderr lines of the serial run."""
    errors = case in ("bad line in a later run", "finding in a later run",
                      "id repeated across runs")
    if ("--rules" in command or case == "bad line in a later run"
            or (errors and command[0] != "validate")):
        return 2, 1
    if command[0] == "validate":
        return int(errors and "--strict" in command), 0
    return int("--strict" in command), 0  # the corpus breaks some rules


# --------------------------------------------------------------------------
# A worker that dies


def _dies_after_the_first_run(task):
    """`corpus.fold_runs`, but a worker given any run but a file's first exits
    at once, as one killed by a signal would."""
    if os.getpid() != PARENT and task[2][1][0] > 0:
        os._exit(1)
    return FOLD_RUNS(task)


def _dies_after_the_first_files(paths):
    """`dwie.convert_files`, but a worker given any files but the first exits."""
    if os.getpid() != PARENT and paths[0].name != "DW_1.json":
        os._exit(1)
    return CONVERT_FILES(paths)


FOLD_RUNS, CONVERT_FILES = corpus.fold_runs, dwie.convert_files
PAIR = ["--a", str(FIXTURES / "annotator_a.jsonl"), "--b", str(FIXTURES / "annotator_b.jsonl")]
DYING = [
    ["score", "--task", "all", "--level", "all", "--per-label",
     "--gold", str(FIXTURES / "annotator_a.jsonl"),
     "--pred", str(FIXTURES / "annotator_b.jsonl")],
    ["kappa", "--task", "entity", *PAIR],
    ["kappa", "--task", "coref", *PAIR],
    *COMMANDS[:5],
    ["convert", str(FIXTURES / "release"), "--out-corpus", "{tmp}/convert.jsonl"],
]


@pytest.mark.skipif(not POOLS or multiprocessing.get_start_method() != "fork",
                    reason="needs more than one CPU and forked workers")
@pytest.mark.parametrize("command", DYING, ids=[
    "score-all", "kappa-entity", "kappa-coref", "validate", "validate-strict", "stats",
    "rules", "rules-strict", "convert"])
def test_a_dead_worker_costs_no_output(tmp_path, monkeypatch, command):
    paths = {**_paths(tmp_path, "golden"), "tmp": tmp_path}
    argv = [arg.format(**paths) for arg in command]
    written = tmp_path / "convert.jsonl" if command[0] == "convert" else paths["tsv"]
    monkeypatch.setattr(corpus, "POOL_MIN_BYTES", 1 << 60)
    serial = _run(argv, written)
    monkeypatch.setattr(corpus, "POOL_MIN_BYTES", 0)
    monkeypatch.setattr(corpus, "ITEMS_PER_TASK", 1)
    monkeypatch.setattr(corpus, "fold_runs", _dies_after_the_first_run)
    monkeypatch.setattr(dwie, "convert_files", _dies_after_the_first_files)
    forks = len(FORKS)
    pooled = _run(argv, written)
    assert len(FORKS) > forks
    monkeypatch.undo()
    assert pooled == serial
    assert serial[0] == int(command[0] == "rules" and "--strict" in command)
    assert serial[2] == ""
    assert multiprocessing.active_children() == []


# --------------------------------------------------------------------------
# A fork that fails


FAILING_FORK_PROBE = """
import errno, multiprocessing, os, sys
import entkit.corpus, entkit.dwie
entkit.corpus.POOL_MIN_BYTES = 0
entkit.corpus.ITEMS_PER_TASK = 1
fork, calls = os.fork, []
def fork_once():  # the second fork fails, as at the process limit
    calls.append(1)
    if len(calls) == 2:
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
    return fork()
os.fork = fork_once
from entkit.cli import run
code = run(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    fh.write(f"forks tried {len(calls)}, workers alive {len(multiprocessing.active_children())}")
sys.exit(code)
"""
FAILING_FORK = [
    ["validate", "{c}"],
    ["stats", "{c}", "--plot-data", "{tsv}"],
    ["rules", "check", "{c}", "--closure"],
    DYING[0],
    *(["kappa", "--task", task, *PAIR] for task in ("entity", "relation", "coref", "linking")),
    DYING[-1],
]


def _killed_group(pgid):
    """Whether a process of group `pgid` was alive; each is killed."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


def _run_child(probe, argv, written, timeout=60):
    """`_run` of `probe` on `argv` in a child process of its own process
    group, which fails the test if the child does not exit in `timeout`
    seconds or leaves a process of its group behind."""
    if written.exists():
        written.unlink()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    with subprocess.Popen([sys.executable, "-c", probe, *argv], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as child:
        try:
            out, err = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _killed_group(child.pid)
            child.communicate()
            pytest.fail(f"{argv} did not exit in {timeout} s")
    assert not _killed_group(child.pid), f"{argv} left a process behind"
    return child.returncode, out, err, written.read_bytes() if written.exists() else None


@pytest.mark.skipif(not POOLS or multiprocessing.get_start_method() != "fork",
                    reason="needs more than one CPU and forked workers")
@pytest.mark.parametrize("command", FAILING_FORK, ids=[
    "validate", "stats", "rules", "score-all", "kappa-entity", "kappa-relation",
    "kappa-coref", "kappa-linking", "convert"])
def test_a_failed_fork_costs_no_output(tmp_path, monkeypatch, command):
    paths = {**_paths(tmp_path, "golden"), "tmp": tmp_path}
    argv = [arg.format(**paths) for arg in command]
    written = tmp_path / "convert.jsonl" if command[0] == "convert" else paths["tsv"]
    monkeypatch.setattr(corpus, "POOL_MIN_BYTES", 1 << 60)
    serial = _run(argv, written)
    monkeypatch.undo()
    report = tmp_path / "probe.txt"
    assert _run_child(FAILING_FORK_PROBE, [str(report), *argv], written) == serial
    assert report.read_text() == "forks tried 2, workers alive 0"
    assert serial[0] == 0 and serial[2] == ""
    assert (serial[3] is not None) == (command[0] in ("stats", "convert"))


# --------------------------------------------------------------------------
# Merged folds


RULES = [rules.parse_rule(line) for line in (
    "t1: R1(X, Y) & R1(Y, Z) => R1(X, Z)",
    "t2: R1(X, Y) & L1(Y) => R2(X, Y)",
    "t3: R2(X, Y) => R1(Y, X)",
)]


def _stats(fold):
    return (fold.summary(), fold.type_histogram(), fold.relation_histograms(),
            fold.profile.records, fold.profile.coverage_table())


FOLDS = {
    "stats": (lambda: stats.CorpusFold(distances=True), _stats),
    "stats without distances": (stats.CorpusFold, _stats),
    "rules": (lambda: rules.RulesFold(RULES), rules.RulesFold.result),
    "rules with closure": (lambda: rules.RulesFold(RULES, closure=True),
                           rules.RulesFold.result),
    "validation": (corpus.ValidationReport, lambda fold: vars(fold.close())),
}


@st.composite
def corpora(draw):
    """Up to eight documents; ids may repeat, for DUPLICATE_DOC_ID."""
    ids = draw(st.lists(st.sampled_from(["d0", "d1", "d2", "d3", "d4", "d5"]),
                        max_size=8))
    return [draw(documents(doc_id)) for doc_id in ids]


@settings(max_examples=100, deadline=None)
@given(corpora(), st.data())
def test_merged_folds_equal_one_fold(docs, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, len(docs)), max_size=4)))
    parts = [docs[i:j] for i, j in zip([0, *cuts], [*cuts, len(docs)])]
    for name, (make, result) in FOLDS.items():
        whole = corpus.fold_documents(make(), docs)
        merged = None
        for part in parts:  # each pickled as a worker sends it
            fold = pickle.loads(pickle.dumps(corpus.fold_documents(make(), part)))
            if merged is None:
                merged = fold
            else:
                merged.merge(fold)
        # as the commands write it: a label set unpickled may list its labels
        # in another order, so dicts may list their keys in another order
        assert json.dumps(result(merged), sort_keys=True) == \
            json.dumps(result(whole), sort_keys=True), name
