"""The CLI contract on arbitrary small corpora and on arbitrary JSON.

The corpora are valid by schema but may break every invariant `validate`
checks: reversed, empty and out-of-range spans, duplicate cluster ids, a
span in two clusters, dangling and self relations, broken sentence covers
and unknown labels. Every command must exit 0, 1 or 2 without letting an
exception escape, and a command that consumes a corpus may exit 0 only when
`validate` finds no error in it. The same exit-code contract holds when a
corpus line, a per-file document, a release file or a `decode` input is any
JSON value at all, a well-formed object with some fields replaced by one, or
any bytes at all; bytes that are not UTF-8 are refused with the file and the
offset of the first bad byte.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entkit.cli import run

CLUSTER_IDS = ["c0", "c1", "c2"]
SMALL = st.integers(-1, 6)
PAIRS = st.lists(st.lists(SMALL, min_size=2, max_size=2), max_size=3)
TAGS = ["person", "gpe0", "organization", "type::gpe2", "unknown"]
RELATION_TYPES = ["in0", "based_in2", "gpe0", "bogus"]


@st.composite
def documents(draw, doc_id):
    """Three in four documents keep every invariant; the others draw spans,
    cluster ids, relation ends, the sentence cover and the split freely."""
    n = draw(st.integers(0, 5))
    tidy = draw(st.sampled_from([True, True, True, False]))
    clusters = []
    if tidy:
        spans = draw(st.lists(st.sampled_from(
            [[b, e] for b in range(n) for e in range(b + 1, n + 1)]),
            unique_by=tuple, max_size=4)) if n else []
        owners = [draw(st.sampled_from(CLUSTER_IDS)) for _ in spans]
        members = [(cid, [s for s, o in zip(spans, owners) if o == cid])
                   for cid in CLUSTER_IDS if cid in owners]
    else:
        members = [(cid, draw(PAIRS)) for cid in
                   draw(st.lists(st.sampled_from(CLUSTER_IDS), max_size=4))]
    for cid, mentions in members:
        cluster = {"id": cid, "mentions": mentions,
                   "tags": draw(st.lists(st.sampled_from(TAGS), max_size=2))}
        link = draw(st.sampled_from([None, "KB1", "KB2", "absent"]))
        if link != "absent":
            cluster["link"] = link
        clusters.append(cluster)
    ids = [c["id"] for c in clusters] if tidy else CLUSTER_IDS + ["dangling"]
    relations = []
    triples = draw(st.lists(st.tuples(st.sampled_from(ids),
                                      st.sampled_from(RELATION_TYPES),
                                      st.sampled_from(ids)),
                            max_size=4)) if ids else []
    for h, t, tl in triples:
        if not (tidy and h == tl):
            relations.append({"head": h, "type": t, "tail": tl})
    cover = [[0, n]] if n else []
    return {"id": doc_id,
            "split": "train" if tidy else draw(st.sampled_from(["test", "dev"])),
            "tokens": [f"t{i}" for i in range(n)],
            "sentences": cover if tidy else draw(st.one_of(st.just(cover), PAIRS)),
            "clusters": clusters, "relations": relations}


@st.composite
def corpora(draw):
    ids = draw(st.lists(st.sampled_from(["d0", "d1", "d2"]), unique=True,
                        max_size=3))
    return [draw(documents(i)) for i in ids]


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = run(argv)
    assert code in (0, 1, 2), argv
    return code, out.getvalue(), err.getvalue()


def _has_errors(path):
    code, out, _err = _run(["validate", path])
    assert code == 0  # without --strict findings do not change the exit code
    return bool(json.loads(out)["errors"])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(corpora(), corpora())
def test_every_command_keeps_the_exit_code_contract(corpus_a, corpus_b):
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a.jsonl", Path(tmp) / "b.jsonl"
        for path, docs in ((a, corpus_a), (b, corpus_b)):
            path.write_text("".join(json.dumps(d) + "\n" for d in docs),
                            encoding="utf-8")
        a, b = str(a), str(b)
        a_invalid = _has_errors(a)
        pair_invalid = a_invalid or _has_errors(b)
        commands = [(["stats", a], a_invalid),
                    (["rules", "check", a, "--closure"], a_invalid)]
        commands += [(["score", "--task", task, "--gold", a, "--pred", b,
                       "--per-label"], pair_invalid)
                     for task in ("ner", "re", "coref", "all")]
        commands += [(["kappa", "--a", a, "--b", b, "--task", task], pair_invalid)
                     for task in ("entity", "relation", "coref", "linking")]
        for argv, invalid in commands:
            code, _out, _err = _run(argv)
            assert not (invalid and code == 0), argv


# --------------------------------------------------------------------------
# Arbitrary JSON

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8)

DOCUMENT = {"id": "d0", "split": "train", "tokens": ["Anna", "in", "Berlin"],
            "sentences": [[0, 3]],
            "clusters": [{"id": "c0", "mentions": [[0, 1]], "tags": ["person"],
                          "link": "Anna"},
                         {"id": "c1", "mentions": [[2, 3]], "tags": ["gpe0"]}],
            "relations": [{"head": "c0", "type": "in0", "tail": "c1"}]}
PREDICTIONS = {"p_cl": {"c0": [[0, 1]]}, "p_men": [[[0, 1], "person"]],
               "p_rel": [[[0, 1], "in0", [2, 3]]]}
RELEASE = {"id": "DW_0", "content": "Anna in Berlin.", "tags": ["train"],
           "mentions": [{"begin": 0, "end": 4, "concept": 0}],
           "concepts": [{"concept": 0, "tags": ["type::person"], "link": None}],
           "relations": [{"s": 0, "p": "in0", "o": 0}]}


def _paths(value, prefix=()):
    """The path of every value nested in `value` (keys and list indices)."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = value.copy()
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


@st.composite
def shaken(draw, template):
    """`template` with the values at one to three of its paths, at any depth,
    replaced by arbitrary JSON."""
    chosen = draw(st.lists(st.sampled_from(list(_paths(template))),
                           min_size=1, max_size=3, unique=True))
    for path in sorted(chosen, key=len, reverse=True):
        template = _replaced(template, path, draw(JSON))
    return template


def _commands(tmp: Path, data: bytes) -> dict[str, list[list[str]]]:
    """Write `data` as a JSONL line, a per-file document, a release file and
    a `decode` input; the command lines that read each, by input kind."""
    line, per_file, pred = tmp / "c.jsonl", tmp / "docs", tmp / "pred.json"
    per_file.mkdir()
    line.write_bytes(data + b"\n")
    (per_file / "x.json").write_bytes(data)
    pred.write_bytes(data)
    line = str(line)
    corpus = [["validate", line, "--strict"], ["validate", str(per_file)],
              ["stats", line], ["rules", "check", line, "--closure"],
              ["score", "--task", "all", "--gold", line, "--pred", line,
               "--per-label"]]
    corpus += [["kappa", "--a", line, "--b", line, "--task", task]
               for task in ("entity", "relation", "coref", "linking")]
    return {"corpus": corpus, "decode": [["decode", "--pred", str(pred)]],
            "convert": [["convert", str(per_file),
                         "--out-corpus", str(tmp / "out.jsonl")]]}


def _run_all(text: str, kinds=("corpus", "decode", "convert")) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        commands = _commands(Path(tmp), text.encode("utf-8"))
        for kind in kinds:
            for argv in commands[kind]:
                _run(argv)


ARBITRARY = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@ARBITRARY
@given(JSON)
def test_every_command_keeps_the_contract_on_arbitrary_json(value):
    _run_all(json.dumps(value))


@settings(ARBITRARY, max_examples=300)
@given(shaken(DOCUMENT))
def test_corpus_commands_keep_the_contract_on_shaken_documents(value):
    _run_all(json.dumps(value), ["corpus"])


@settings(ARBITRARY, max_examples=300)
@given(shaken(PREDICTIONS))
def test_decode_keeps_the_contract_on_shaken_predictions(value):
    _run_all(json.dumps(value), ["decode"])


@settings(ARBITRARY, max_examples=300)
@given(shaken(RELEASE))
def test_convert_keeps_the_contract_on_shaken_releases(value):
    _run_all(json.dumps(value), ["convert"])


def test_every_command_keeps_the_contract_on_deeply_nested_json():
    _run_all("[" * 100_000 + "]" * 100_000)


# --------------------------------------------------------------------------
# Arbitrary bytes

# Bytes that occur in no UTF-8 text, whatever surrounds them.
NEVER_UTF8 = [0xc0, 0xc1, *range(0xf5, 0x100)]


@ARBITRARY
@given(st.binary(max_size=40))
def test_every_command_keeps_the_contract_on_arbitrary_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        for argvs in _commands(Path(tmp), data).values():
            for argv in argvs:
                _run(argv)


@ARBITRARY
@given(st.binary(max_size=20).map(lambda b: b.replace(b"\n", b"")),
       st.sampled_from(NEVER_UTF8), st.binary(max_size=20))
def test_invalid_utf8_names_the_file_and_the_byte(head, bad, tail):
    """Every command that reads a file it cannot decode exits 2 with one
    `error:` line naming that file and the offset of the first bad byte."""
    data = head + bytes([bad]) + tail
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        start = e.start
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        read = {str(tmp / "c.jsonl"): tmp / "c.jsonl",
                str(tmp / "docs"): tmp / "docs" / "x.json",
                str(tmp / "pred.json"): tmp / "pred.json"}
        for argvs in _commands(tmp, data).values():
            for argv in argvs:
                code, out, err = _run(argv)
                target = next(read[a] for a in argv if a in read)
                assert code == 2 and out == "", argv
                [line] = err.splitlines()
                assert line.startswith("error: invalid UTF-8"), argv
                assert line.endswith(f"[{target} @ byte {start}]"), argv


# --------------------------------------------------------------------------
# Whitespace around JSON Lines records

CORPUS_COMMANDS = [["validate", "{}"], ["stats", "{}"],
                   ["rules", "check", "{}", "--closure"],
                   ["score", "--task", "all", "--gold", "{}", "--pred", "{}"],
                   ["kappa", "--a", "{}", "--b", "{}", "--task", "entity"]]


def test_only_json_whitespace_surrounds_a_record():
    """Only space, tab, CR and LF may surround a JSON Lines record or make a
    line blank. A file with other whitespace there, such as U+00A0, U+3000,
    U+001C or a vertical tab, makes every corpus command exit 2 with one
    `error:` line naming the file and the byte; a one-document directory
    holding the same text reports that byte too."""
    record = json.dumps(DOCUMENT)
    n = len(record)  # json.dumps writes ASCII: characters are bytes
    refused = {f"\u00a0{record}\n": 0,
               f" {record} \n\x1c\n": n + 3,
               f"{record}\n\u3000\n": n + 1,
               f"{record}\n \x0b \n": n + 2,
               f"\t{record}\u00a0\r\n": n + 1}
    with tempfile.TemporaryDirectory() as tmp:
        path, per_file = Path(tmp) / "c.jsonl", Path(tmp) / "docs"
        per_file.mkdir()
        (per_file / "x.json").write_text(f"\u00a0{record}", encoding="utf-8")
        code, _out, err = _run(["validate", str(per_file)])
        assert code == 2 and err.endswith(f"[{per_file / 'x.json'} @ byte 0]\n")
        other = json.dumps(dict(DOCUMENT, id="d1"))
        path.write_text(f" \t{record}\r\n\n \t\r\n{other} \n", encoding="utf-8")
        assert _run(["validate", str(path), "--strict"])[0] == 0
        for text, byte in refused.items():
            path.write_text(text, encoding="utf-8")
            for argv in CORPUS_COMMANDS:
                argv = [str(path) if a == "{}" else a for a in argv]
                code, out, err = _run(argv)
                assert code == 2 and out == "", (text, argv)
                [line] = err.splitlines()
                assert line.startswith("error: "), (text, argv)
                assert line.endswith(f"[{path} @ byte {byte}]"), (text, argv)


# --------------------------------------------------------------------------
# Integers over the decoder's digit limit

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="this Python has no digit limit")
def test_an_integer_over_the_digit_limit_names_the_file_and_the_record():
    """A number longer than Python's integer digit limit makes every reader
    exit 2 with one `error:` line naming the file and the byte where the
    record starts after its leading JSON whitespace, as the decoder gives no
    position for it."""
    huge = "1" * (DIGIT_LIMIT + 1)
    first = json.dumps(DOCUMENT) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        line, per_file, pred = tmp / "c.jsonl", tmp / "docs", tmp / "pred.json"
        per_file.mkdir()
        line.write_text(f'{first} \t{{"id": "d1", "tokens": [{huge}]}}\n',
                        encoding="utf-8")
        (per_file / "x.json").write_text(f'\r\n {{"id": {huge}}}', encoding="utf-8")
        pred.write_text(f' {{"p_cl": {{"c0": [[0, {huge}]]}}}}', encoding="utf-8")
        for argv, target, byte in (
                (["validate", str(line)], line, len(first) + 2),
                (["validate", str(per_file)], per_file / "x.json", 3),
                (["decode", "--pred", str(pred)], pred, 1)):
            code, out, err = _run(argv)
            assert code == 2 and out == "", argv
            [msg] = err.splitlines()
            assert msg.startswith("error: Exceeds the limit"), argv
            assert msg.endswith(f"[{target} @ byte {byte}]"), argv


# --------------------------------------------------------------------------
# An option for some tasks only


def test_kappa_refuses_conditioned_for_coref_and_linking():
    """`--conditioned` restricts entity and relation kappa. With `--task
    coref` or `linking` it exits 2 with one `error:` line naming the option
    and its tasks, before either corpus is read."""
    with tempfile.TemporaryDirectory() as tmp:
        path, missing = Path(tmp) / "c.jsonl", str(Path(tmp) / "missing.jsonl")
        path.write_text(json.dumps(DOCUMENT) + "\n", encoding="utf-8")
        for task in ("coref", "linking"):
            code, out, err = _run(["kappa", "--a", missing, "--b", missing,
                                   "--task", task, "--conditioned"])
            assert code == 2 and out == "", task
            assert err == (f"error: --conditioned applies to --task entity and "
                           f"relation only, not {task}\n")
        for task in ("entity", "relation"):
            code, out, _err = _run(["kappa", "--a", str(path), "--b", str(path),
                                    "--task", task, "--conditioned"])
            assert code == 0 and json.loads(out)["task"] == task
