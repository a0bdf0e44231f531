import contextlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from entkit import cli, corpus, dwie
from entkit.corpus import (Mention, ParseError, UNANNOTATED, serialize_corpus,
                           validate_document)
from entkit.dwie import ConversionReport, convert_annotation, convert_release

SRC = Path(__file__).resolve().parents[1] / "src"

RELEASE_DOC = {
    "id": "DW_001",
    "tags": ["train", "all"],
    "content": "Anna Smith visited Berlin. She liked Germany!",
    "mentions": [
        {"begin": 0, "end": 10, "text": "Anna Smith", "concept": 0},
        {"begin": 19, "end": 25, "text": "Berlin", "concept": 1},
        {"begin": 27, "end": 30, "text": "She", "concept": 0},
        {"begin": 37, "end": 44, "text": "Germany", "concept": 2},
    ],
    "concepts": [
        {"concept": 0, "text": "Anna Smith", "tags": ["type::person"],
         "link": "Anna_Smith"},
        {"concept": 1, "text": "Berlin", "tags": ["type::gpe2"], "link": None},
        {"concept": 2, "text": "Germany", "tags": ["type::gpe0"],
         "link": "Germany"},
        {"concept": 3, "text": "ghost", "tags": ["type::person"],
         "link": None},
    ],
    "relations": [
        {"s": 1, "p": "in0", "o": 2},
        {"s": 3, "p": "citizen_of", "o": 2},
    ],
}


def _convert_spans(content, spans=()):
    """Convert `content` with one concept whose mentions are the character
    spans `spans`."""
    report = ConversionReport()
    release = {"id": "d", "content": content, "concepts": [{"concept": 0}],
               "mentions": [{"begin": b, "end": e, "concept": 0} for b, e in spans]}
    return convert_annotation(release, report), report


def test_tokenizer_offsets_cover_words_and_punctuation():
    doc, _report = _convert_spans("Anna Smith visited Berlin.", [(0, 4), (19, 25)])
    assert doc.tokens == ("Anna", "Smith", "visited", "Berlin", ".")
    assert doc.clusters[0].mentions == (Mention(0, 1), Mention(3, 4))


def test_sentences_split_on_final_punctuation():
    doc, _report = _convert_spans("One two. Three!")
    assert doc.sentences == (Mention(0, 3), Mention(3, 5))


def test_char_span_snaps_to_touching_tokens():
    doc, report = _convert_spans("Anna Smith visited", [(0, 10), (5, 10), (100, 110)])
    assert doc.clusters[0].mentions == (Mention(0, 2), Mention(1, 2))
    assert report.unaligned_mentions == 1


def test_convert_annotation_field_mapping():
    report = ConversionReport()
    doc = convert_annotation(RELEASE_DOC, report)
    assert doc.id == "DW_001"
    assert doc.split == "train"
    by_id = {c.id: c for c in doc.clusters}
    assert set(by_id) == {"c0", "c1", "c2"}  # mention-less c3 dropped
    assert by_id["c0"].tags == frozenset({"type::person"})
    assert by_id["c0"].link == "Anna_Smith"
    assert by_id["c1"].link is None
    assert len(by_id["c0"].mentions) == 2
    assert [r for r in doc.relations] == [
        r for r in doc.relations if r.head != "c3" and r.tail != "c3"]
    assert report.dropped_concepts == 1
    assert report.dropped_relations == 1
    # converted document satisfies the canonical hard invariants
    assert validate_document(doc).ok


def test_convert_release_directory(tmp_path):
    (tmp_path / "a.json").write_text(json.dumps(RELEASE_DOC))
    second = dict(RELEASE_DOC, id="DW_002", tags=["test"])
    (tmp_path / "b.json").write_text(json.dumps(second))
    docs, report = convert_release(tmp_path)
    assert [d.id for d in docs] == ["DW_001", "DW_002"]
    assert [d.split for d in docs] == ["train", "test"]
    assert report.documents == 2


def test_missing_link_field_stays_unannotated():
    raw = dict(RELEASE_DOC)
    raw["concepts"] = [{"concept": 0, "text": "Anna Smith",
                        "tags": ["type::person"]}]
    raw["mentions"] = [RELEASE_DOC["mentions"][0]]
    raw["relations"] = []
    doc = convert_annotation(raw)
    assert doc.clusters[0].link is UNANNOTATED


def test_release_schema_error_is_parse_error(tmp_path):
    broken = dict(RELEASE_DOC, mentions=[{"end": 10, "concept": 0}])
    (tmp_path / "DW_001.json").write_text(json.dumps(broken))
    with pytest.raises(ParseError, match="DW_001.json"):
        convert_release(tmp_path)


def test_mentions_aligning_to_one_token_span_become_one_mention(tmp_path):
    # characters [1, 9) lie inside "Anna Smith" and snap to its two tokens
    extra = {"begin": 1, "end": 9, "text": "nna Smit", "concept": 0}
    release = dict(RELEASE_DOC, mentions=RELEASE_DOC["mentions"] + [extra])
    (tmp_path / "a.json").write_text(json.dumps(release))
    [doc], _report = convert_release(tmp_path)
    c0 = next(c for c in doc.clusters if c.id == "c0")
    assert c0.mentions == (Mention(0, 2), Mention(5, 6))
    assert validate_document(doc).ok


# --------------------------------------------------------------------------
# The pooled `convert` against the serial reader


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _generated_release(src: Path, n: int = 40) -> Path:
    """`n` files over several pool tasks; each drops a concept and its
    relation and has an unaligned mention, and every seventh has no
    content (a note)."""
    src.mkdir()
    unaligned = {"begin": 100, "end": 110, "concept": 1}
    for i in range(n):
        doc = dict(RELEASE_DOC, id=f"DW_{i:03d}",
                   mentions=RELEASE_DOC["mentions"] + [unaligned])
        if i % 7 == 3:
            doc["content"] = ""
        (src / f"{i:03d}.json").write_text(json.dumps(doc))
    return src


def _serial_convert(src: Path, out_corpus: Path) -> str:
    """`convert`'s stdout for `src`, its corpus written by the serial reader."""
    report = ConversionReport()
    serialize_corpus(dwie.iter_release(src, report), out_corpus)
    return json.dumps({"schema_version": cli.SCHEMA_VERSION, **vars(report)},
                      indent=2, sort_keys=True, ensure_ascii=False) + "\n"


ONE_CPU_PROBE = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from entkit.cli import run
sys.exit(run(sys.argv[1:]))
"""


def _run_probe(probe: str, argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `probe` run on `argv` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count() or 1
CONVERT_FILES, CONVERTED_HERE = dwie.convert_files, []


def _converted_here(paths):
    """`dwie.convert_files`, recording each call in `CONVERTED_HERE`; a worker
    records in its own copy of that list."""
    CONVERTED_HERE.append(paths)
    return CONVERT_FILES(paths)


@pytest.fixture
def pool_any_input(monkeypatch):
    """Every input is large enough for a pool, so one starts wherever there
    is more than one CPU."""
    monkeypatch.setattr(corpus, "POOL_MIN_BYTES", 0)


@pytest.mark.parametrize("cpus", ["all", "one"])
@pytest.mark.parametrize("release", ["golden", "generated"])
def test_pooled_convert_equals_the_serial_reader(tmp_path, monkeypatch, release, cpus,
                                                pool_any_input):
    if cpus == "one" and not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this platform")
    src = Path(__file__).parent / "fixtures" / "release" if release == "golden" \
        else _generated_release(tmp_path / "release")
    want_out = _serial_convert(src, tmp_path / "want.jsonl")
    argv = ["convert", str(src), "--out-corpus", str(tmp_path / "got.jsonl")]
    if cpus == "all":
        CONVERTED_HERE.clear()
        monkeypatch.setattr(dwie, "convert_files", _converted_here)
        got = _run(argv)
        # a pool that stands converts nothing here: no serial rerun
        assert (CONVERTED_HERE == []) == (CPUS > 1)
    else:
        got = _run_probe(ONE_CPU_PROBE, argv)
    assert got == (0, want_out, "")
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    if release == "generated":
        report = json.loads(want_out)
        assert len(report["notes"]) == 6 and min(
            report[k] for k in ("unaligned_mentions", "dropped_concepts",
                                "dropped_relations")) >= 40
    assert multiprocessing.active_children() == []


def test_pooled_convert_names_the_first_broken_file_in_filename_order(tmp_path,
                                                                      pool_any_input):
    # the first broken file ends one pool task and the second starts the
    # next, so the second worker fails first
    src = _generated_release(tmp_path / "release", 3 * corpus.ITEMS_PER_TASK)
    first, second = sorted(src.glob("*.json"))[corpus.ITEMS_PER_TASK - 1:][:2]
    first.write_text('{"id": ')
    second.write_text(json.dumps(dict(RELEASE_DOC, mentions=5)))
    with pytest.raises(ParseError) as serial:
        convert_release(src)
    out_corpus = tmp_path / "converted.jsonl"
    out_corpus.write_text("an earlier corpus\n")
    code, out, err = _run(["convert", str(src), "--out-corpus", str(out_corpus)])
    assert (code, out, err) == (2, "", f"error: {serial.value}\n")
    assert f"[{first} @ byte 7]" in err and str(second) not in err
    assert out_corpus.read_bytes() == b"an earlier corpus\n"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fault", ["repeated concept", "mention of no concept"])
def test_convert_refuses_a_release_file_that_breaks_the_concept_index(tmp_path, fault):
    concepts, mentions = RELEASE_DOC["concepts"], RELEASE_DOC["mentions"]
    broken = dict(RELEASE_DOC, concepts=concepts + concepts[:1]) \
        if fault == "repeated concept" \
        else dict(RELEASE_DOC, mentions=mentions + [dict(mentions[0], concept=9)])
    src = tmp_path / "release"
    src.mkdir()
    (src / "DW_001.json").write_text(json.dumps(broken))
    with pytest.raises(ParseError) as serial:
        convert_release(src)
    code, out, err = _run(["convert", str(src), "--out-corpus", str(tmp_path / "c.jsonl")])
    assert (code, out, err) == (2, "", f"error: {serial.value}\n")
    assert err.endswith(f"[{src / 'DW_001.json'}]\n") and err.count("\n") == 1
    assert not (tmp_path / "c.jsonl").exists()


@pytest.mark.parametrize("reader", ["serial", "pool"])
def test_convert_checks_a_concept_that_no_mention_names(tmp_path, monkeypatch, reader):
    """A concept with no mention is dropped, but its tags and link are
    checked first: a malformed one is a schema error, not a count."""
    if reader == "pool":
        monkeypatch.setattr(corpus, "POOL_MIN_BYTES", 0)
    broken = dict(RELEASE_DOC, concepts=RELEASE_DOC["concepts"]
                  + [{"concept": 9, "tags": 7, "link": 5}])
    src = tmp_path / "release"
    src.mkdir()
    (src / "DW_001.json").write_text(json.dumps(broken))
    with pytest.raises(ParseError) as serial:
        convert_release(src)
    assert "concept 'tags' must be a list of strings" in str(serial.value)
    code, out, err = _run(["convert", str(src), "--out-corpus", str(tmp_path / "c.jsonl")])
    assert (code, out, err) == (2, "", f"error: {serial.value}\n")
    assert err.endswith(f"[{src / 'DW_001.json'}]\n") and err.count("\n") == 1
    assert multiprocessing.active_children() == []
    broken["concepts"][-1]["tags"] = []
    (src / "DW_001.json").write_text(json.dumps(broken))
    code, out, err = _run(["convert", str(src), "--out-corpus", str(tmp_path / "c.jsonl")])
    assert code == 2 and "concept 'link' must be a string or null" in err


FORK_PROBE = """
import os, sys
import entkit.corpus
entkit.corpus.POOL_MIN_BYTES = int(sys.argv[1])
forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(1))
from entkit.cli import run
code = run(sys.argv[2:])
print(len(forks), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("files", [3, corpus.ITEMS_PER_TASK + 1])
def test_convert_forks_no_more_workers_than_tasks(tmp_path, files):
    """A pool starts only on more than one CPU and at least POOL_MIN_BYTES
    of input, with one worker per CPU and at most one per task."""
    if not hasattr(os, "register_at_fork") or \
            multiprocessing.get_start_method() != "fork":
        pytest.skip("workers are not forked on this platform")
    src = _generated_release(tmp_path / "release", files)
    size = sum(path.stat().st_size for path in src.glob("*.json"))
    assert size < corpus.POOL_MIN_BYTES
    tasks = -(-files // corpus.ITEMS_PER_TASK)
    for threshold, workers in ((size, min(CPUS, tasks) if CPUS > 1 else 0),
                               (size + 1, 0)):
        code, _out, forks = _run_probe(
            FORK_PROBE, [str(threshold), "convert", str(src),
                         "--out-corpus", str(tmp_path / "c.jsonl")])
        assert (code, forks) == (0, f"{workers}\n")
