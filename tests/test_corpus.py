import json
from pathlib import Path

import pytest

from entkit.corpus import (CorpusValidationError, Mention,
                           MentionMultiClusterError, ParseError,
                           UNANNOTATED, document_from_json,
                           document_to_json, load_corpus, parse_corpus,
                           serialize_corpus, span_index, validate_document)
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


def test_unknown_labels_warn_not_fail():
    d = make_doc(clusters=[("c1", [(0, 1)], ["made_up_tag"]),
                           ("c2", [(2, 3)], [])],
                 relations=[("c1", "made_up_rel", "c2")])
    report = validate_document(d)
    assert report.ok
    codes = {f.code for f in report.warnings}
    assert codes == {"UNKNOWN_TAG", "UNKNOWN_RELATION_TYPE"}


def test_namespaced_tag_with_known_value_does_not_warn():
    d = make_doc(clusters=[("c1", [(0, 1)], ["type::person"]),
                           ("c2", [(2, 3)], ["type::nonsense"])])
    report = validate_document(d)
    warned = [f.message for f in report.warnings]
    assert not any("type::person" in m for m in warned)
    assert any("type::nonsense" in m for m in warned)


def test_span_index_minimal():
    d = make_doc(clusters=[("c1", [(0, 1)], [])])
    assert span_index(d) == {Mention(0, 1): "c1"}


def test_span_index_enumerates_all_mentions():
    d = make_doc(clusters=[("c1", [(0, 1), (4, 6)], []), ("c2", [(2, 3)], [])])
    index = span_index(d)
    assert index == {Mention(0, 1): "c1", Mention(4, 6): "c1",
                     Mention(2, 3): "c2"}
    assert len(index) == sum(len(c.mentions) for c in d.clusters)


def test_span_index_empty():
    assert span_index(make_doc()) == {}


def test_span_index_raises_on_shared_span():
    d = make_doc(clusters=[("c1", [(0, 2)], []), ("c2", [(0, 2)], [])])
    with pytest.raises(MentionMultiClusterError):
        span_index(d)


def test_per_file_format(tmp_path):
    docs = parse_corpus(FIXTURES / "ok.jsonl")
    for d in docs:
        (tmp_path / f"{d.id}.json").write_text(json.dumps(document_to_json(d)))
    assert load_corpus(tmp_path, fmt="per-file") == docs


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
        load_corpus(tmp_path, fmt="per-file")
    assert exc.value.byte_offset == raw.index(b"oops")  # 36 bytes, 27 characters
    line = tmp_path / "d.jsonl"
    line.write_bytes(raw + b"\n")
    with pytest.raises(ParseError) as exc_jsonl:
        load_corpus(line)
    assert exc_jsonl.value.byte_offset == exc.value.byte_offset


def test_parse_corpus_rejects_duplicate_document_ids(tmp_path):
    path = tmp_path / "dup.jsonl"
    serialize_corpus([make_doc("d1"), make_doc("d2"), make_doc("d1")], path)
    with pytest.raises(CorpusValidationError) as exc:
        parse_corpus(path)
    assert [(f.doc_id, f.code) for f in exc.value.findings] == [
        ("d1", "DUPLICATE_DOC_ID")]
    assert len(parse_corpus(path, strict=False)) == 3
