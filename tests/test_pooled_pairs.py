"""`score` and `kappa` give the same answer pooled and serial, on any input.

With `corpus.POOL_MIN_BYTES` at 0 the paired commands fold their line pairs
in worker processes wherever there is more than one CPU; with it above the
input's size they read the pairs serially, the reference. Each command must
print the same stdout and stderr and exit with the same code both ways, on
the golden fixtures and on inputs the pooled fold must hand back to the
serial reader: an error in either file, ids that do not pair up run by
run, a blank line inside a run, files of unequal length and a directory
corpus. Each worker runs the serial reader on its runs of lines, so where
that reader accepts every run and no id repeats (blank lines that leave the
records paired run by run, ids swapped within a run) the pooled fold
stands. No worker is left alive, after an error either.

Reading a file's runs one after another (`corpus._line_runs`) gives the
documents and the first error, at its absolute byte offset, of reading the
whole file.
"""

import contextlib
import io
import json
import multiprocessing
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entkit import cli, corpus
from entkit.corpus import ParseError

FIXTURES = Path(__file__).parent / "fixtures"
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count() or 1
FORKS = []
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_parent=lambda: FORKS.append(1))

COMMANDS = [
    *(["score", "--task", task, "--level", "all", "--per-label", "--gold", "{a}",
       "--pred", "{b}"] for task in ("ner", "re", "coref", "all")),
    *(["kappa", "--task", task, *flag, "--a", "{a}", "--b", "{b}"]
      for task, flag in [("entity", []), ("entity", ["--conditioned"]),
                         ("relation", []), ("relation", ["--conditioned"]),
                         ("coref", []), ("linking", [])]),
]


def _records(name):
    with open(FIXTURES / f"annotator_{name}.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _reverse_first_span(obj):
    obj["clusters"][0]["mentions"][0].reverse()


def _rename(obj, doc_id):
    obj["id"] = doc_id


def _edit(records, i, change):
    change(records[i])
    return records


def _lines(records):
    return [json.dumps(obj) + "\n" for obj in records]


def _inputs(case):
    """The lines of the two files of `case`."""
    a, b = _records("a"), _records("b")
    if case == "parse error in a":
        return [*_lines(a)[:2], '{"id": \n', *_lines(a)[3:]], _lines(b)
    if case == "parse error in b":
        return _lines(a), [*_lines(b)[:1], '{"id": \n', *_lines(b)[2:]]
    if case == "finding in a":
        return _lines(_edit(a, 2, _reverse_first_span)), _lines(b)
    if case == "finding in b":
        return _lines(a), _lines(_edit(b, 1, _reverse_first_span))
    if case == "warning only":  # an unknown tag: the pooled fold stands
        return _lines(_edit(a, 1, lambda obj: obj["clusters"][0]["tags"].append("xyz"))), \
            _lines(b)
    if case == "repeated id":
        return (_lines(_edit(a, 2, lambda obj: _rename(obj, "g1"))),
                _lines(_edit(b, 2, lambda obj: _rename(obj, "g1"))))
    if case == "reordered ids":
        return _lines(a), _lines(b)[::-1]
    if case == "ids swapped within a run":  # both in the first run of 3
        lines = _lines(b)
        return _lines(a), [lines[0], lines[2], lines[1], *lines[3:]]
    if case == "token mismatch":
        return _lines(a), _lines(_edit(b, 1, lambda obj: obj["tokens"].__setitem__(0, "x")))
    if case == "blank line":
        return [*_lines(a)[:2], "\n", *_lines(a)[2:]], _lines(b)
    if case == "trailing blank lines":  # a has one run more than b
        return [*_lines(a), "\n", "  \r\n", "\t\n"], _lines(b)
    if case == "unequal length":  # b ends a run early
        return _lines(a), _lines(b)[:-1]
    if case == "extra line":  # b's last run is one line longer than a's
        return _lines(a), _lines(b) + _lines(_edit(_records("b")[:1], 0,
                                                   lambda obj: _rename(obj, "g5")))
    return _lines(a), _lines(b)


CASES = ["golden", "parse error in a", "parse error in b", "finding in a",
         "finding in b", "warning only", "repeated id", "reordered ids",
         "ids swapped within a run", "token mismatch", "blank line",
         "trailing blank lines", "unequal length", "extra line", "directory"]
STANDS = {"golden", "warning only", "ids swapped within a run",
          "trailing blank lines"}  # no serial rerun


def _files(tmp_path, case):
    lines_a, lines_b = _inputs(case)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text("".join(lines_a), encoding="utf-8")
    b.write_text("".join(lines_b), encoding="utf-8")
    if case == "directory":
        a = tmp_path / "a"
        a.mkdir()
        for i, line in enumerate(lines_a):
            (a / f"{i}.json").write_text(line, encoding="utf-8")
    return {"a": a, "b": b}


def _counting(calls, fn):
    def counted(*args):
        calls.append(args)
        return fn(*args)
    return counted


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", CASES)
def test_pooled_commands_equal_the_serial_reader(tmp_path, monkeypatch, case):
    paths = _files(tmp_path, case)
    pooled_runs, reruns = 0, []
    for command in COMMANDS:
        argv = [arg.format(**paths) for arg in command]
        monkeypatch.setattr(corpus, "POOL_MIN_BYTES", 1 << 60)
        serial = _run(argv)
        monkeypatch.setattr(corpus, "POOL_MIN_BYTES", 0)
        monkeypatch.setattr(corpus, "ITEMS_PER_TASK", 3)  # runs of 3 and 1 lines
        monkeypatch.setattr(corpus, "iter_valid_corpus",
                            _counting(reruns, corpus.iter_valid_corpus))
        forks = len(FORKS)
        pooled = _run(argv)
        pooled_runs += len(FORKS) > forks
        monkeypatch.undo()
        assert pooled == serial, argv
        assert multiprocessing.active_children() == []
        if case == "golden":
            assert serial[0] == 0 and serial[2] == ""
        elif case.startswith(("parse error", "finding", "repeated", "token", "unequal",
                              "extra")):
            assert serial[0] == 2 and serial[1] == "" and serial[2].count("\n") == 1
    pools = CPUS > 1 and hasattr(os, "register_at_fork") and case != "directory"
    assert pooled_runs == (len(COMMANDS) if pools else 0)
    if pools and case in STANDS:
        assert reruns == []


DOCUMENT = {"id": "d", "tokens": ["a", "b"], "sentences": [[0, 2]],
            "clusters": [{"id": "c", "mentions": [[0, 1]], "tags": ["person"]}]}
LINES = st.one_of(
    st.builds(lambda n, pad: (pad + json.dumps(dict(DOCUMENT, id=f"d{n}")) + pad).encode(),
              st.integers(0, 99), st.sampled_from(["", " ", "\t ", "\r"])),
    st.sampled_from([b"", b" ", b"\t", b"  \r"]),  # blank and whitespace-only
    st.sampled_from([b'{"id": ', b'{"id": 5}', b'{"id": "\xff"}', b"[1, 2"]),  # bad
)


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(LINES, max_size=12), last_newline=st.booleans(),
       items_per_task=st.integers(1, 5))
def test_reading_the_runs_in_turn_reads_the_file(lines, last_newline, items_per_task):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n" * (bool(lines) and last_newline))
        try:
            want, want_error = list(corpus._iter_jsonl(path)), None
        except ParseError as e:
            want, want_error = None, (str(e), e.byte_offset)
        with mock.patch.object(corpus, "ITEMS_PER_TASK", items_per_task):
            runs = list(corpus._line_runs(path))
        # the runs cut the file into consecutive byte ranges
        assert [0, *(stop for _, stop in runs)] == [
            *(start for start, _ in runs), path.stat().st_size]
        got = []
        try:
            for run in runs:
                got += corpus._iter_jsonl(path, *run)
        except ParseError as e:
            assert (str(e), e.byte_offset) == want_error
        else:
            assert (got, want_error) == (want, None)
