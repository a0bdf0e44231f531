import dataclasses
import json
import pickle
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entkit.corpus import (CorpusValidationError, EntityCluster, Finding, Mention,
                           MentionMultiClusterError, ParseError,
                           UNANNOTATED, document_from_json,
                           document_to_json, load_corpus, parse_corpus,
                           cluster_overlaps, relation_positions,
                           serialize_corpus, validate_corpus,
                           validate_document)
from entkit.agreement import relation_agreement
from entkit.metrics import build_eval_view
from entkit.stats import (corpus_summary, multilabel_relation_histogram,
                          relation_distance_profile, relation_type_histogram)
from conftest import make_doc

FIXTURES = Path(__file__).parent / "fixtures"


def test_parse_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert parse_corpus(path) == []


def test_parse_minimal_document(tmp_path):
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps({
        "id": "d", "split": "unsplit", "tokens": ["a", "b", "c"],
        "sentences": [[0, 3]],
        "clusters": [{"id": "c1", "mentions": [[0, 2]], "tags": ["person"]}],
        "relations": [],
    }) + "\n")
    docs = parse_corpus(path)
    assert len(docs) == 1
    assert len(docs[0].clusters) == 1
    assert docs[0].clusters[0].mentions == (Mention(0, 2),)
    assert docs[0].clusters[0].link is UNANNOTATED


def test_parse_fixture_order_and_splits():
    docs = parse_corpus(FIXTURES / "ok.jsonl")
    assert [d.id for d in docs] == ["d1", "d2"]
    assert [d.split for d in docs] == ["train", "test"]
    assert docs[1].clusters[0].link is None  # explicit NIL


def test_dangling_relation_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({
        "id": "d", "split": "train", "tokens": ["a"], "sentences": [[0, 1]],
        "clusters": [{"id": "c1", "mentions": [[0, 1]], "tags": []}],
        "relations": [{"head": "c1", "type": "in0", "tail": "c9"}],
    }) + "\n")
    with pytest.raises(CorpusValidationError) as exc:
        parse_corpus(path)
    assert any(f.code == "DANGLING_RELATION" for f in exc.value.findings)


def test_corpus_errors_survive_pickling():
    """An error raised in a worker process reaches the parent pickled."""
    findings = [Finding("d", "DANGLING_RELATION", "m")]
    error = pickle.loads(pickle.dumps(CorpusValidationError(findings, "p.jsonl")))
    assert type(error) is CorpusValidationError
    assert (error.findings, error.path) == (findings, "p.jsonl")
    assert str(error) == str(CorpusValidationError(findings, "p.jsonl"))
    for want in (ParseError("bad", "p.jsonl", 7), ParseError("bad", "p.jsonl"),
                 ParseError("bad")):
        error = pickle.loads(pickle.dumps(want))
        assert type(error) is ParseError
        assert (error.path, error.byte_offset, str(error)) == (
            want.path, want.byte_offset, str(want))


def test_syntax_error_reports_byte_offset(tmp_path):
    path = tmp_path / "broken.jsonl"
    good = json.dumps({"id": "d", "split": "train", "tokens": [],
                       "sentences": [], "clusters": [], "relations": []})
    path.write_bytes((good + "\n{not json\n").encode("utf-8"))
    with pytest.raises(ParseError) as exc:
        load_corpus(path)
    assert exc.value.byte_offset is not None
    assert exc.value.byte_offset >= len(good) + 1


def test_round_trip_identity(tmp_path):
    original = parse_corpus(FIXTURES / "ok.jsonl")
    out = tmp_path / "copy.jsonl"
    serialize_corpus(original, out)
    assert parse_corpus(out) == original


def test_round_trip_on_random_documents(tmp_path):
    import random
    from conftest import random_labeled_doc
    rng = random.Random(9)
    docs = [random_labeled_doc(rng, f"d{i}", with_relations=True)
            for i in range(25)]
    out = tmp_path / "random.jsonl"
    serialize_corpus(docs, out)
    assert load_corpus(out) == docs


def test_round_trip_preserves_unannotated_vs_nil():
    d = make_doc(clusters=[("a", [(0, 1)], ["person"], UNANNOTATED),
                           ("b", [(2, 3)], ["person"], None),
                           ("c", [(4, 5)], ["person"], "KB9")])
    obj = document_to_json(d)
    assert "link" not in obj["clusters"][0]
    assert obj["clusters"][1]["link"] is None
    assert obj["clusters"][2]["link"] == "KB9"
    assert document_from_json(obj) == d


def test_validate_clean_document():
    report = validate_document(make_doc(clusters=[("c", [(0, 2)], ["person"])]))
    assert report.ok
    assert report.warnings == []


def test_validate_is_deterministic():
    d = make_doc(clusters=[("c", [(5, 3)], ["person"]), ("c", [(0, 1)], [])])
    r1, r2 = validate_document(d), validate_document(d)
    assert r1.errors == r2.errors and r1.warnings == r2.warnings


def test_validate_span_order():
    report = validate_document(make_doc(clusters=[("c", [(5, 3)], [])]))
    assert any(f.code == "SPAN_ORDER" for f in report.errors)


def test_validate_span_bounds():
    report = validate_document(make_doc(n_tokens=4, clusters=[("c", [(2, 9)], [])]))
    assert any(f.code == "SPAN_BOUNDS" for f in report.errors)


def test_validate_mention_multi_cluster():
    d = make_doc(clusters=[("c1", [(0, 2)], []), ("c2", [(0, 2)], [])])
    report = validate_document(d)
    assert any(f.code == "MENTION_MULTI_CLUSTER" for f in report.errors)


def test_validate_self_relation():
    d = make_doc(clusters=[("c1", [(0, 1)], [])],
                 relations=[("c1", "in0", "c1")])
    report = validate_document(d)
    assert any(f.code == "SELF_RELATION" for f in report.errors)


def test_validate_sentence_cover():
    d = make_doc(n_tokens=6, sentences=((0, 3), (4, 6)),
                 clusters=[("c", [(0, 1)], [])])
    report = validate_document(d)
    assert any(f.code == "SENTENCE_COVERAGE" for f in report.errors)


@pytest.mark.parametrize("sentences", [
    (),
    ((0, 3), (3, 5)),
    ((1, 6),),
    ((0, 3), (3, 3), (3, 6)),
], ids=["no-sentences", "cover-stops-short", "first-not-at-0", "empty-sentence"])
def test_validate_sentence_cover_gaps(sentences):
    """A six-token document whose sentences do not tile [0, 6) once each."""
    d = make_doc(n_tokens=6, sentences=sentences)
    for report in (validate_document(d), validate_corpus([d])):
        assert [f.code for f in report.errors] == ["SENTENCE_COVERAGE"]


def test_validate_document_without_tokens_or_sentences_is_clean():
    d = make_doc(n_tokens=0, sentences=())
    for report in (validate_document(d), validate_corpus([d])):
        assert report.ok and report.warnings == []


def test_unknown_labels_warn_not_fail():
    d = make_doc(clusters=[("c1", [(0, 1)], ["made_up_tag"]),
                           ("c2", [(2, 3)], [])],
                 relations=[("c1", "made_up_rel", "c2")])
    report = validate_document(d)
    assert report.ok
    codes = {f.code for f in report.warnings}
    assert codes == {"UNKNOWN_TAG", "UNKNOWN_RELATION_TYPE"}


def test_unknown_tag_warnings_in_sorted_tag_order():
    # a tag is known as itself or through the value after its last "::"
    d = make_doc(clusters=[("c1", [(0, 1)], ["zz", "type::person", "actor",
                                             "type::nonsense", "a::b::actor",
                                             "actor::zz"]),
                           ("c2", [(2, 3)], ["yy"])])
    assert [(f.code, f.message) for f in validate_document(d).warnings] == [
        ("UNKNOWN_TAG", "cluster 'c1': tag 'actor::zz' not in vocabulary"),
        ("UNKNOWN_TAG", "cluster 'c1': tag 'type::nonsense' not in vocabulary"),
        ("UNKNOWN_TAG", "cluster 'c1': tag 'zz' not in vocabulary"),
        ("UNKNOWN_TAG", "cluster 'c2': tag 'yy' not in vocabulary")]


def test_namespaced_tag_with_known_value_does_not_warn():
    d = make_doc(clusters=[("c1", [(0, 1)], ["type::person"]),
                           ("c2", [(2, 3)], ["type::nonsense"])])
    report = validate_document(d)
    warned = [f.message for f in report.warnings]
    assert not any("type::person" in m for m in warned)
    assert any("type::nonsense" in m for m in warned)


def test_cluster_overlaps_minimal():
    d = make_doc(clusters=[("c1", [(0, 1)], [])])
    assert cluster_overlaps(d, make_doc()) == {(0, None): 1}
    assert cluster_overlaps(make_doc(), d) == {(None, 0): 1}


def test_cluster_overlaps_counts_every_mention():
    d = make_doc(clusters=[("c1", [(0, 1), (4, 6)], []), ("c2", [(2, 3)], [])])
    other = make_doc(clusters=[("x", [(0, 1), (2, 3)], []), ("y", [(7, 8)], [])])
    cells = cluster_overlaps(d, other)
    assert cells == {(0, 0): 1, (0, None): 1, (1, 0): 1, (None, 1): 1}
    assert sum(n for (i, _), n in cells.items() if i is not None) == \
        sum(len(c.mentions) for c in d.clusters)


def test_mention_is_its_begin_end_tuple():
    d = make_doc(clusters=[("c1", [(4, 6), (0, 1)], [])])
    assert d.clusters[0].mentions == ((0, 1), (4, 6))
    assert hash(Mention(4, 6)) == hash((4, 6))
    assert (4, 6) in set(d.clusters[0].mentions)
    assert Mention(4, 6) < (4, 7) and ("d",) + Mention(4, 6) == ("d", 4, 6)


def test_cluster_overlaps_empty():
    assert cluster_overlaps(make_doc(), make_doc()) == {}


def test_cluster_overlaps_raises_on_shared_span():
    d = make_doc(clusters=[("c1", [(0, 2)], []), ("c2", [(0, 2)], [])])
    with pytest.raises(MentionMultiClusterError):
        cluster_overlaps(d, make_doc())


def test_relation_triple_is_its_head_type_tail_tuple():
    d = make_doc(clusters=[("b", [(0, 1)], []), ("a", [(2, 3)], [])],
                 relations=[("b", "r", "a"), ("a", "r", "b"), ("b", "r", "a")])
    assert d.relations[0] == ("b", "r", "a") and d.relations[0].tail == "a"
    assert relation_positions(d) == [(1, "r", 0), (0, "r", 1)]


RELATION_READERS = pytest.mark.parametrize("run", [
    lambda d: relation_type_histogram([d]),
    lambda d: multilabel_relation_histogram([d]),
    lambda d: relation_distance_profile([d]),
    lambda d: relation_agreement([d], [d]),
    lambda d: build_eval_view(d, d, "re"),
], ids=["relation_type_histogram", "multilabel_relation_histogram",
        "relation_distance_profile", "relation_agreement", "build_eval_view"])


@RELATION_READERS
def test_relation_to_missing_cluster_id_is_refused(run):
    d = make_doc("d", clusters=[("c", [(0, 1)], ["person"])],
                 relations=[("c", "r", "zz")])
    with pytest.raises(ValueError,
                       match="^d: relation 'r' references a missing cluster id$"):
        run(d)


@RELATION_READERS
def test_relation_to_repeated_cluster_id_is_refused(run):
    d = make_doc("d", clusters=[("c", [(0, 1)], ["person"]),
                                ("c", [(2, 3)], ["person"]),
                                ("t", [(5, 6)], ["location"])],
                 relations=[("c", "r", "t")])
    with pytest.raises(ValueError, match="^d: relation 'r' references "
                                         "cluster id 'c', which two clusters carry$"):
        run(d)


def test_cluster_mentions_load_sorted_and_distinct(tmp_path):
    path = tmp_path / "repeated.jsonl"
    path.write_text(json.dumps({
        "id": "d", "tokens": list("abcdefg"), "sentences": [[0, 7]],
        "clusters": [{"id": "c", "mentions": [[4, 6], [0, 1], [4, 6]],
                      "tags": []}],
    }) + "\n")
    docs = parse_corpus(path)
    assert docs[0].clusters[0].mentions == ((0, 1), (4, 6))
    assert corpus_summary(docs).mentions == 2


SPAN_LISTS = st.lists(st.tuples(st.integers(0, 6), st.integers(1, 2)).map(
    lambda t: [t[0], t[0] + t[1]]), max_size=5)
CLUSTER_FIELDS = st.tuples(
    st.text(max_size=2),
    # canonical lists take the loader's path without the constructor
    st.one_of(SPAN_LISTS, SPAN_LISTS.map(lambda ps: sorted(map(list, {*map(tuple, ps)})))),
    st.lists(st.sampled_from(["L1", "L2", "L3"]), max_size=3),
    st.sampled_from([UNANNOTATED, None, "K1"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(CLUSTER_FIELDS, max_size=4))
@example([("c", [[0, 1], [2, 3]], ["L1"], None),
          ("c", [[2, 3], [0, 1], [2, 3]], ["L1", "L1"], UNANNOTATED)])
def test_loaded_clusters_equal_constructed_ones(fields):
    """Every cluster `document_from_json` builds is the one the EntityCluster
    constructor builds from the same fields, by every view a dataclass has,
    whether its mentions came sorted and distinct or not."""
    entries = [{"id": cid, "mentions": pairs, "tags": tags}
               | ({} if link is UNANNOTATED else {"link": link})
               for cid, pairs, tags, link in fields]
    doc = document_from_json({"id": "d", "tokens": [], "sentences": [],
                              "clusters": entries})
    assert len(doc.clusters) == len(fields)
    for got, (cid, pairs, tags, link) in zip(doc.clusters, fields):
        want = EntityCluster(cid, tuple(Mention(b, e) for b, e in pairs),
                             frozenset(tags), link)
        assert type(got) is EntityCluster
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert list(vars(got).items()) == list(vars(want).items())
        assert got.mentions == tuple(sorted({*map(tuple, pairs)}))
        assert all(type(m) is Mention for m in got.mentions)
        copy = pickle.loads(pickle.dumps(got))
        assert copy == want and list(vars(copy).items()) == list(vars(want).items())
        assert dataclasses.replace(got, id="z") == dataclasses.replace(want, id="z")
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        for name in ("id", "mentions", "tags", "link"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(got, name, None)


def test_per_file_format(tmp_path):
    docs = parse_corpus(FIXTURES / "ok.jsonl")
    for d in docs:
        (tmp_path / f"{d.id}.json").write_text(json.dumps(document_to_json(d)))
    assert load_corpus(tmp_path) == docs


def test_schema_error_message_names_document(tmp_path):
    path = tmp_path / "typed.jsonl"
    path.write_text(json.dumps({
        "id": "d9", "split": "train", "tokens": ["a"], "sentences": [[0, 1]],
        "clusters": [{"id": "c", "mentions": [["x", 1]], "tags": []}],
        "relations": [],
    }) + "\n")
    with pytest.raises(ParseError) as exc:
        load_corpus(path)
    assert "d9" in str(exc.value)


def test_per_file_syntax_error_reports_byte_offset(tmp_path):
    raw = '{"id": "é€é€é€", "tokens": oops}'.encode("utf-8")
    (tmp_path / "d.json").write_bytes(raw)
    with pytest.raises(ParseError) as exc:
        load_corpus(tmp_path)
    assert exc.value.byte_offset == raw.index(b"oops")  # 36 bytes, 27 characters
    line = tmp_path / "d.jsonl"
    line.write_bytes(raw + b"\n")
    with pytest.raises(ParseError) as exc_jsonl:
        load_corpus(line)
    assert exc_jsonl.value.byte_offset == exc.value.byte_offset


@pytest.mark.parametrize("text, message, byte", [
    ('  {"id": \n', "Expecting value", 8),
    (" \t\ufeff{}\n", "Unexpected UTF-8 BOM (decode using utf-8-sig)", 2),
    ('{"a": 1} x \r\n', "Extra data", 9),
    ('\n \n{"id": "d",  \t\r\n', "Expecting property name enclosed in double quotes", 14),
    (" " + "[" * 3000 + "\n", "JSON nested too deeply", 1),
])
def test_jsonl_syntax_error_is_located_in_the_bare_record(tmp_path, text, message, byte):
    """A record's syntax error is reported as the record without its
    surrounding JSON whitespace places it: at its end, not the line's, and
    a BOM counts as the record's first character."""
    path = tmp_path / "c.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_corpus(path)
    assert str(exc.value) == f"{message} [{path} @ byte {byte}]"


def test_per_file_schema_error_names_the_file_without_offset(tmp_path):
    (tmp_path / "a.json").write_text(json.dumps(document_to_json(make_doc("a"))))
    bad = tmp_path / "b.json"
    bad.write_text(json.dumps({"id": "d9", "tokens": "oops", "sentences": []}))
    with pytest.raises(ParseError) as exc:
        load_corpus(tmp_path)
    assert exc.value.byte_offset is None
    assert exc.value.path == str(bad)
    assert str(exc.value) == f"d9: field 'tokens' must be a list of strings [{bad}]"


def test_parse_corpus_rejects_duplicate_document_ids(tmp_path):
    path = tmp_path / "dup.jsonl"
    serialize_corpus([make_doc("d1"), make_doc("d2"), make_doc("d1")], path)
    with pytest.raises(CorpusValidationError) as exc:
        parse_corpus(path)
    assert [(f.doc_id, f.code) for f in exc.value.findings] == [
        ("d1", "DUPLICATE_DOC_ID")]
    assert len(load_corpus(path)) == 3
