import json

import pytest

from entkit.corpus import Mention, ParseError, UNANNOTATED, validate_document
from entkit.dwie import ConversionReport, convert_annotation, convert_release

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
