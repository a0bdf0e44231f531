"""The single-corpus commands read one document at a time: what they report,
and which error wins, must not depend on it, and their memory must not grow
with the number of documents."""

import contextlib
import io
import json
import tracemalloc
from pathlib import Path

import pytest

from entkit import agreement, cli
from entkit.corpus import (DUPLICATE_DOC_ID, CorpusError, CorpusValidationError,
                           document_from_json, load_corpus, parse_corpus,
                           validate_corpus)

DOC = {"id": "d1", "split": "train", "tokens": ["a", "b", "c"],
       "sentences": [[0, 3]],
       "clusters": [{"id": "c", "mentions": [[0, 1]], "tags": ["person"]},
                    {"id": "e", "mentions": [[2, 3]], "tags": ["gpe0"]}],
       "relations": [{"head": "c", "type": "in0", "tail": "e"}]}
REVERSED = {**DOC, "clusters": [{"id": "c", "mentions": [[1, 0]], "tags": []}],
            "relations": []}
DANGLING = {**DOC, "relations": [{"head": "c", "type": "in0", "tail": "x"}]}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _lines(*docs):
    return "".join(json.dumps(d) + "\n" for d in docs)


# --------------------------------------------------------------------------
# Which error wins


@pytest.mark.parametrize("command", [
    ["validate", "{bad}"], ["stats", "{bad}"], ["rules", "check", "{bad}"],
    ["rules", "check", "{bad}", "--rules", "{missing}"],
    ["score", "--task", "ner", "--gold", "{bad}", "--pred", "{ok}"],
    ["kappa", "--a", "{ok}", "--b", "{bad}", "--task", "entity"],
])
def test_a_parse_error_in_the_last_record_beats_validation_errors(tmp_path,
                                                                  command):
    head = _lines({**REVERSED, "id": "d0"}, DOC)
    paths = {"bad": tmp_path / "bad.jsonl", "ok": tmp_path / "ok.jsonl",
             "missing": tmp_path / "no_such_rules.txt"}
    paths["bad"].write_text(head + "{\n")
    paths["ok"].write_text(_lines(DOC))
    code, out, err = _run([a.format(**paths) for a in command])
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: Expecting property name enclosed in double quotes "
        f"[{paths['bad']} @ byte {len(head) + 1}]"]


def test_validation_errors_beat_an_unreadable_rule_file(tmp_path):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text(_lines(REVERSED, {**DOC, "id": "d2"}))
    code, out, err = _run(["rules", "check", str(corpus),
                           "--rules", str(tmp_path / "no_such_rules.txt")])
    assert (code, out) == (2, "")
    assert "corpus fails validation (1 error(s))" in err


def test_validation_error_findings_are_validate_corpus_errors(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(_lines(REVERSED, {**DOC, "id": "d2"}, DANGLING,
                           {**DOC, "id": "d2"}, {**DANGLING, "id": "d3"}))
    with pytest.raises(CorpusValidationError) as caught:
        parse_corpus(path)
    findings = caught.value.findings
    assert findings == validate_corpus(load_corpus(path)).errors
    assert [(f.doc_id, f.code) for f in findings] == [
        ("d1", DUPLICATE_DOC_ID), ("d2", DUPLICATE_DOC_ID),
        ("d1", "SPAN_ORDER"), ("d1", "DANGLING_RELATION"),
        ("d3", "DANGLING_RELATION")]


def test_a_directory_corpus_is_read_in_sorted_file_order(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("b", "c", "a"):
        (corpus / f"{name}.json").write_text(
            json.dumps({**DANGLING, "id": f"doc-{name}"}))
    code, out, _err = _run(["validate", str(corpus)])
    assert code == 0
    assert [e["doc"] for e in json.loads(out)["errors"]] == [
        "doc-a", "doc-b", "doc-c"]
    for name in ("b", "c", "a"):
        (corpus / f"{name}.json").write_text(json.dumps({**DOC, "id": f"doc-{name}"}))
    code, out, _err = _run(["rules", "check", str(corpus), "--closure"])
    assert code == 0
    assert [d["doc"] for d in json.loads(out)["closure"]] == [
        "doc-a", "doc-b", "doc-c"]


PAIRED_COMMANDS = {
    **{f"score-{task}": ["score", "--task", task, "--gold", "{first}",
                         "--pred", "{second}"] for task in ("ner", "re", "coref", "all")},
    **{f"kappa-{task}": ["kappa", "--a", "{first}", "--b", "{second}", "--task", task]
       for task in ("entity", "relation", "coref", "linking")},
}
# a document of the other corpus, and the same id with other tokens
OTHER_ID = {**DOC, "id": "d9"}
OTHER_TOKENS = {**DOC, "tokens": ["a", "b", "x"]}


def _broken(path: Path, kind: str, docs: list, first=False) -> str:
    """Write `docs` with a record that fails to parse (`kind` "parse") or a
    document that fails validation ("invalid") first or last; return the
    one `error:` line that reading `path` alone gives."""
    bad = "{\n" if kind == "parse" else _lines({**REVERSED, "id": "d0"})
    path.write_text(bad + _lines(*docs) if first else _lines(*docs) + bad)
    with pytest.raises((CorpusError, ValueError)) as caught:
        parse_corpus(path)
    return f"error: {caught.value}"


@pytest.mark.parametrize("command", PAIRED_COMMANDS.values(), ids=list(PAIRED_COMMANDS))
@pytest.mark.parametrize("first_kind", ["parse", "invalid"])
@pytest.mark.parametrize("second_kind", ["parse", "invalid"])
def test_the_first_corpus_error_beats_the_second(tmp_path, command, first_kind,
                                                 second_kind):
    paths = {"first": tmp_path / "first.jsonl", "second": tmp_path / "second.jsonl"}
    # the first corpus fails in its last record, the second in its first
    want = _broken(paths["first"], first_kind, [DOC])
    _broken(paths["second"], second_kind, [DOC], first=True)
    code, out, err = _run([a.format(**paths) for a in command])
    assert (code, out, err.splitlines()) == (2, "", [want])


@pytest.mark.parametrize("command", PAIRED_COMMANDS.values(), ids=list(PAIRED_COMMANDS))
@pytest.mark.parametrize("side", ["first", "second"])
@pytest.mark.parametrize("kind", ["parse", "invalid"])
@pytest.mark.parametrize("mismatch", [OTHER_ID, OTHER_TOKENS], ids=["ids", "tokens"])
def test_a_corpus_error_beats_a_pairing_error(tmp_path, command, side, kind,
                                              mismatch):
    paths = {"first": tmp_path / "first.jsonl", "second": tmp_path / "second.jsonl"}
    other = "second" if side == "first" else "first"
    paths[other].write_text(_lines(DOC))
    paths[side].write_text(_lines(mismatch))
    code, _out, err = _run([a.format(**paths) for a in command])
    pairing = ("the corpora cover different document ids" if mismatch is OTHER_ID
               else "token-space mismatch in document 'd1'")
    assert code == 2 and pairing in err  # without the corpus error
    want = _broken(paths[side], kind, [mismatch])
    code, out, err = _run([a.format(**paths) for a in command])
    assert (code, out, err.splitlines()) == (2, "", [want])


def _ids(*ids, tokens=DOC["tokens"]) -> list[dict]:
    """DOC under each of `ids`, tokenized as `tokens`."""
    return [{**DOC, "id": i, "tokens": tokens} for i in ids]


OTHER = OTHER_TOKENS["tokens"]


# (first corpus, second corpus, the pairing error); each second corpus is
# also written reversed and shuffled
PAIRING_CASES = {
    "tokens": (_ids("d1", "d2", "d3", "d4", "d5", "d6"),
               _ids("d1", "d2", "d4", "d6") + _ids("d5", "d3", tokens=OTHER),
               "token-space mismatch in document 'd3'"),
    "ids": (_ids("d1", "x5", "d2", "x1", "x4", "x2") + _ids("d3", tokens=OTHER),
            _ids("d2", "y3", "d1", "d3", "y1"),
            "the corpora cover different document ids (only in the first: "
            "['x1', 'x2', 'x4'], only in the second: ['y1', 'y3'])"),
}
ORDERS = {"same": lambda docs: docs, "reversed": lambda docs: docs[::-1],
          "shuffled": lambda docs: docs[1::2] + docs[::2]}


@pytest.mark.parametrize("command", PAIRED_COMMANDS.values(), ids=list(PAIRED_COMMANDS))
@pytest.mark.parametrize("case", PAIRING_CASES)
@pytest.mark.parametrize("order", ORDERS)
def test_pairing_errors_do_not_depend_on_document_order(tmp_path, command, case,
                                                        order):
    first, second, want = PAIRING_CASES[case]
    paths = {"first": tmp_path / "first.jsonl", "second": tmp_path / "second.jsonl"}
    paths["first"].write_text(_lines(*first))
    paths["second"].write_text(_lines(*ORDERS[order](second)))
    code, out, err = _run([a.format(**paths) for a in command])
    assert (code, out, err.splitlines()) == (2, "", [f"error: {want}"])


@pytest.mark.parametrize("adapter", [
    agreement.entity_agreement, agreement.relation_agreement,
    agreement.coref_agreement, agreement.linking_agreement])
@pytest.mark.parametrize("order", ORDERS)
def test_agreement_on_lists_refuses_a_repeated_id_first(adapter, order):
    docs = lambda *ids, tokens=DOC["tokens"]: list(
        map(document_from_json, _ids(*ids, tokens=tokens)))
    # the repeat comes last, after an id only one list has and a pair that
    # tokenizes differently
    first = docs("d1", "d2", "x1", "d1")
    second = ORDERS[order](docs("d2", "y1") + docs("d1", tokens=OTHER))
    with pytest.raises(ValueError, match="repeats a document id"):
        adapter(first, second)


@pytest.mark.parametrize("command", [
    ["stats", "{corpus}", "--plot-data", "{corpus}"],
    ["stats", "{corpus}", "--out", "{corpus}"],
    ["validate", "{corpus}", "--out", "{corpus}"],
    ["rules", "check", "{corpus}", "--closure", "--out", "{corpus}"],
])
def test_an_output_over_the_input_is_written_after_the_input_is_read(
        tmp_path, command):
    text = _lines(DOC, {**DOC, "id": "d2"}, {**DOC, "id": "d3"})
    runs = {}
    for name in ("copy", "corpus"):
        (tmp_path / f"{name}.jsonl").write_text(text)
        argv = [a.format(corpus=tmp_path / f"{name}.jsonl") for a in command]
        if name == "copy":  # the output goes elsewhere
            argv[-1] = str(tmp_path / "want")
        runs[name] = _run(argv)
    assert runs["corpus"] == runs["copy"]
    assert runs["copy"][0] == 0
    assert (tmp_path / "corpus.jsonl").read_text() == (tmp_path / "want").read_text()


# --------------------------------------------------------------------------
# convert


RELEASE = {"id": "DW_1", "tags": ["train"], "content": "Anna visited Berlin.",
           "mentions": [{"begin": 0, "end": 4, "concept": 0},
                        {"begin": 13, "end": 19, "concept": 1}],
           "concepts": [{"concept": 0, "tags": ["type::person"]},
                        {"concept": 1, "tags": ["type::gpe2"], "link": "Berlin"}],
           "relations": [{"s": 0, "p": "citizen_of", "o": 1}]}


@pytest.mark.parametrize("existing", [None, "an earlier corpus\n"])
def test_convert_writes_nothing_when_the_last_release_file_is_broken(
        tmp_path, existing):
    src = tmp_path / "release"
    src.mkdir()
    for i in range(3):
        (src / f"{i}.json").write_text(json.dumps({**RELEASE, "id": f"DW_{i}"}))
    (src / "9.json").write_text('{"id": ')
    out_corpus = tmp_path / "converted.jsonl"
    if existing is not None:
        out_corpus.write_text(existing)
    code, out, err = _run(["convert", str(src), "--out-corpus", str(out_corpus)])
    assert (code, out) == (2, "")
    assert f"[{src / '9.json'} @ byte 7]" in err
    if existing is None:
        assert not out_corpus.exists()
    else:
        assert out_corpus.read_text() == existing


@pytest.mark.parametrize("existing", [None, "an earlier corpus\n"])
@pytest.mark.parametrize("kind", ["missing", "file"])
def test_convert_refuses_a_source_that_is_not_a_directory(tmp_path, kind, existing):
    src = tmp_path / "release"
    if kind == "file":
        src.write_text(json.dumps(RELEASE))
    out_corpus = tmp_path / "converted.jsonl"
    if existing is not None:
        out_corpus.write_text(existing)
    code, out, err = _run(["convert", str(src), "--out-corpus", str(out_corpus)])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and str(src) in err
    if existing is None:
        assert not out_corpus.exists()
    else:
        assert out_corpus.read_text() == existing


def test_convert_reads_an_empty_directory_as_no_documents(tmp_path):
    src = tmp_path / "release"
    src.mkdir()
    out_corpus = tmp_path / "converted.jsonl"
    code, out, _ = _run(["convert", str(src), "--out-corpus", str(out_corpus)])
    assert code == 0 and json.loads(out)["documents"] == 0
    assert out_corpus.read_text() == ""


# --------------------------------------------------------------------------
# Memory


def _document(i: int, n_tokens: int) -> dict:
    """A valid document of distinct token strings, one cluster per ten
    tokens and a relation from every fourth cluster to the next; its tags
    and relation type are known and fire no built-in rule, so no command's
    report grows with it."""
    n = n_tokens // 10
    return {"id": f"doc{i}", "split": "train",
            "tokens": [f"w{i}.{k}" for k in range(n_tokens)],
            "sentences": [[b, min(b + 25, n_tokens)] for b in range(0, n_tokens, 25)],
            "clusters": [{"id": f"c{j}", "mentions": [[10 * j, 10 * j + 2],
                                                      [10 * j + 5, 10 * j + 6]],
                          "tags": ["actor"], "link": f"Q{j}"} for j in range(n)],
            "relations": [{"head": f"c{j}", "type": "appears_in", "tail": f"c{j + 1}"}
                          for j in range(0, n - 1, 4)]}


def _release_file(i: int, n_tokens: int) -> dict:
    """A release file whose article converts to `n_tokens` tokens."""
    words = [f"w{i}x{k}" for k in range(n_tokens - 1)]
    begins = [sum(len(w) + 1 for w in words[:k]) for k in range(0, n_tokens - 1, 10)]
    return {"id": f"DW_{i}", "tags": ["train"], "content": " ".join(words) + ".",
            "mentions": [{"begin": b, "end": b + 3, "concept": j}
                         for j, b in enumerate(begins)],
            "concepts": [{"concept": j, "tags": ["actor"]} for j in range(len(begins))],
            "relations": [{"s": j, "p": "appears_in", "o": j + 1}
                          for j in range(0, len(begins) - 1, 2)]}


def _peak(argv) -> int:
    tracemalloc.start()
    try:
        code, _out, err = _run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    return peak


def assert_commands_stream(tmp: Path, n_docs=25, n_tokens=400, slack=256 * 2 ** 10):
    """`validate`, `stats --plot-data` and `rules check --closure` on 4x the
    documents peak at most `slack` bytes above their peak on `n_docs`;
    `convert`'s peak may grow by the extra output's size on top of that.
    Holding the corpus adds about 60 KB per document."""
    for n in (1, n_docs, 4 * n_docs):
        base = tmp / str(n)
        (base / "release").mkdir(parents=True)
        with open(base / "corpus.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(_document(i, n_tokens)) + "\n" for i in range(n))
        for i in range(n):
            (base / "release" / f"{i:05d}.json").write_text(
                json.dumps(_release_file(i, n_tokens)))

    def commands(n):
        base = tmp / str(n)
        corpus, out = str(base / "corpus.jsonl"), str(base / "report.json")
        return {
            "validate": ["validate", corpus, "--out", out],
            "stats": ["stats", corpus, "--plot-data", str(base / "d.tsv"), "--out", out],
            "rules": ["rules", "check", corpus, "--closure", "--out", out],
            "convert": ["convert", str(base / "release"),
                        "--out-corpus", str(base / "converted.jsonl"), "--out", out],
        }

    for argv in commands(1).values():  # built-in resources load once
        _run(argv)
    small, large = commands(n_docs), commands(4 * n_docs)
    for name in small:
        peaks = _peak(small[name]), _peak(large[name])
        budget = peaks[0] + slack
        if name == "convert":
            budget += (tmp / str(4 * n_docs) / "converted.jsonl").stat().st_size \
                - (tmp / str(n_docs) / "converted.jsonl").stat().st_size
        assert peaks[1] <= budget, \
            f"{name}: peak {peaks[1]} bytes on {4 * n_docs} documents, " \
            f"{peaks[0]} on {n_docs}, budget {budget}"


def test_single_corpus_commands_stream_their_documents(tmp_path):
    assert_commands_stream(tmp_path)


def _predicted(doc: dict) -> dict:
    """`doc` with every third cluster down to its first mention, so that
    scores and kappas see spans only one side marks."""
    return {**doc, "clusters": [{**c, "mentions": c["mentions"][:1]} if j % 3 == 0
                                else c for j, c in enumerate(doc["clusters"])]}


def assert_paired_commands_stream(tmp: Path, n_docs=25, n_tokens=400,
                                  slack=256 * 2 ** 10):
    """`score` (each task, every level, per label) and `kappa` (each task)
    on two corpora of 4x the documents peak at most `slack` bytes above
    their peak on `n_docs`, when both files list their documents in one
    order: they hold one document pair and small per-pair counts.

    `score --task all` is also run with the second file in reverse order.
    The pairing then holds up to one corpus, so that case's budget is one
    corpus more: what the 4x second file takes as a loaded list."""
    for n in (1, n_docs, 4 * n_docs):
        base = tmp / str(n)
        base.mkdir(parents=True)
        docs = [_document(i, n_tokens) for i in range(n)]
        for name, ordered in (("gold", docs), ("pred", map(_predicted, docs)),
                              ("reversed", map(_predicted, reversed(docs)))):
            with open(base / f"{name}.jsonl", "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(d) + "\n" for d in ordered)

    def commands(n):
        base = tmp / str(n)
        gold, pred = str(base / "gold.jsonl"), str(base / "pred.jsonl")
        out = str(base / "report.json")
        score = ["score", "--level", "all", "--per-label", "--gold", gold, "--out", out]
        kappa = ["kappa", "--a", gold, "--b", pred, "--out", out]
        return {
            **{f"score-{task}": [*score, "--task", task, "--pred", pred]
               for task in ("ner", "re", "coref", "all")},
            **{f"kappa-{task}": [*kappa, "--task", task]
               for task in ("entity", "relation", "coref", "linking")},
            "score-all-reversed": [*score, "--task", "all",
                                   "--pred", str(base / "reversed.jsonl")],
        }

    for argv in commands(1).values():  # built-in resources load once
        _run(argv)
    tracemalloc.start()
    try:
        one_corpus = load_corpus(tmp / str(4 * n_docs) / "reversed.jsonl")
        corpus_size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del one_corpus
    small, large = commands(n_docs), commands(4 * n_docs)
    for name in small:
        peaks = _peak(small[name]), _peak(large[name])
        budget = peaks[0] + slack + (corpus_size if name.endswith("reversed") else 0)
        assert peaks[1] <= budget, \
            f"{name}: peak {peaks[1]} bytes on {4 * n_docs} pairs, " \
            f"{peaks[0]} on {n_docs}, budget {budget}"


def test_paired_commands_stream_their_document_pairs(tmp_path):
    assert_paired_commands_stream(tmp_path)
