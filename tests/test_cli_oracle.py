"""What the CLI composes, against references built only from `oracles.py`.

The oracle-property tests hold each fast scorer to its brute-force oracle
as a library function. Here the commands themselves run on generated valid
corpus pairs, whose files list the documents in any order: `score --task all
--level all --per-label` must print the item-list scores of the documents
paired by id and the oracle coreference scores over (doc id, begin, end)
partitions; one `score --task {ner,re,coref} --level {mention,hard,soft,all}`,
with or without `--per-label`, drawn per example, must print the matching
slice of that reference; and `stats --plot-data` must print the
per-cluster summary, the per-cluster type histogram and the distinct-triple
relation histograms, and write the per-threshold coverage of the pairwise
distance records. The four
`kappa` tasks, entity and relation with and without `--conditioned`, must
print the brute-force agreement over explicit item lists, or exit 2 where
that has no items. `validate`, on generated corpora with invalid documents,
must print the findings of the one-check-at-a-time `oracles.validate_findings`.
Outputs are parsed and compared by `==`. On the same documents, the loader
must build the per-item reference's document, the validating readers must
call `validate_document` once per document, and `iter_valid_corpus` must
yield exactly the documents the oracle finds no error in, then raise the
oracle's errors.
"""

import contextlib
import json
import tempfile
from pathlib import Path

import pytest

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
import entkit.corpus
from entkit.corpus import (UNANNOTATED, CorpusValidationError, document_from_json,
                           iter_valid_corpus, parse_corpus, validate_corpus,
                           validate_path)
from entkit.metrics import LEVELS
from conftest import make_doc
from test_cli_contract import _run
from test_oracle_properties import TYPE_TAGS, corpus_pairs, documents


def _as_json(doc) -> dict:
    """The corpus file record of a Document."""
    clusters = []
    for c in doc.clusters:
        cluster = {"id": c.id, "mentions": [list(m) for m in c.mentions],
                   "tags": sorted(c.tags)}
        if c.link is not UNANNOTATED:
            cluster["link"] = c.link
        clusters.append(cluster)
    return {"id": doc.id, "split": doc.split, "tokens": list(doc.tokens),
            "sentences": [list(s) for s in doc.sentences], "clusters": clusters,
            "relations": [{"head": r.head, "type": r.type, "tail": r.tail}
                          for r in doc.relations]}


def _write(path: Path, docs) -> str:
    path.write_text("".join(json.dumps(_as_json(d)) + "\n" for d in docs),
                    encoding="utf-8")
    return str(path)


def _partition(docs):
    return [frozenset((d.id, m.begin, m.end) for m in c.mentions)
            for d in docs for c in d.clusters]


def _score_reference(pairs) -> dict:
    out: dict = {"schema_version": 1}
    for task in ("ner", "re"):
        views = [oracles.build_eval_view(g, p, task) for g, p in pairs]
        out[task] = {level: oracles.item_list_score(views, level).to_json()
                     for level in LEVELS}
        out[task]["per_label"] = {
            level: {label: r.to_json() for label, r in
                    oracles.item_list_per_label(views, level).items()}
            for level in LEVELS}
    gold, pred = (_partition(side) for side in zip(*pairs))
    reports = {"muc": oracles.muc(gold, pred), "b3": oracles.b_cubed(gold, pred),
               "ceafe": oracles.ceaf_e(gold, pred)}
    out["coref"] = {name: r.to_json() for name, r in reports.items()}
    out["coref"]["avg_f1"] = (reports["muc"].f1 + reports["b3"].f1
                              + reports["ceafe"].f1) / 3.0
    return out


def _score_slice(reference: dict, task: str, level: str, per_label: bool) -> dict:
    """What `score --task TASK --level LEVEL [--per-label]` prints, cut from
    the `score --task all --level all --per-label` reference."""
    if task == "coref":  # coreference has no levels and no labels
        return {"schema_version": 1, **reference["coref"]}
    levels = LEVELS if level == "all" else (level,)
    out = {"schema_version": 1, **{lv: reference[task][lv] for lv in levels}}
    if per_label:
        out["per_label"] = {lv: reference[task]["per_label"][lv] for lv in levels}
    return out


def _counts(hist: dict, names: tuple[str, str]) -> dict:
    return {key: dict(zip(names, counts)) for key, counts in hist.items()}


def _stats_reference(docs) -> tuple[dict, list]:
    types = oracles.per_cluster_type_histogram(docs)
    relations, buckets = oracles.relation_histograms(docs)
    entity, pairs = ("clusters", "mentions"), ("entity_pairs", "mention_pairs")
    report = {
        "summary": oracles.per_cluster_summary(docs),
        "entity_types": {"direct": _counts(types.direct, entity),
                         "rollup": _counts(types.rollup, entity)},
        "relation_types": {
            "per_type": _counts(relations.per_type, pairs),
            "total_entity_pairs": relations.total_entity_pairs,
            "total_mention_pairs": relations.total_mention_pairs},
        "relation_labels_per_pair": _counts(
            {str(b): counts for b, counts in buckets.items()}, pairs),
    }
    table = oracles.naive_coverage_table(oracles.pairwise_distance_records(docs))
    return report, table


def _parse_table(text: str) -> list:
    header, *rows = text.splitlines()
    assert header.split("\t") == ["threshold", "cdf_min_tokens", "cdf_max_tokens",
                                  "cdf_min_sent", "cdf_max_sent"]
    return [(int(d), *map(float, cdfs))
            for d, *cdfs in (row.split("\t") for row in rows)]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(corpus_pairs(TYPE_TAGS), st.randoms(use_true_random=False))
def test_score_and_stats_equal_oracle_references(pair, rng):
    golds, preds = pair
    pairs = list(zip(golds, preds))
    # each file lists its documents in its own order; pairing is by id
    golds, preds = rng.sample(golds, len(golds)), rng.sample(preds, len(preds))
    with tempfile.TemporaryDirectory() as tmp:
        gold = _write(Path(tmp) / "gold.jsonl", golds)
        pred = _write(Path(tmp) / "pred.jsonl", preds)
        code, out, err = _run(["score", "--task", "all", "--level", "all",
                               "--per-label", "--gold", gold, "--pred", pred])
        assert (code, err) == (0, "")
        reference = _score_reference(pairs)
        assert json.loads(out) == reference

        task = rng.choice(["ner", "re", "coref"])
        level = rng.choice(["mention", "hard", "soft", "all"])
        per_label = rng.random() < 0.5
        code, out, err = _run(["score", "--task", task, "--level", level, "--gold",
                               gold, "--pred", pred] + ["--per-label"] * per_label)
        assert (code, err) == (0, "")
        assert json.loads(out) == _score_slice(reference, task, level, per_label)

        tsv = Path(tmp) / "stats.tsv"
        code, out, err = _run(["stats", gold, "--plot-data", str(tsv)])
        assert (code, err) == (0, "")
        report, table = _stats_reference(golds)
        got = json.loads(out)
        assert {key: got[key] for key in report} == report
        assert _parse_table(tsv.read_text(encoding="utf-8")) == table


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(corpus_pairs(), st.randoms(use_true_random=False))
def test_kappa_equals_oracle_references(pair, rng):
    docs_a, docs_b = pair
    references = [
        (task, conditioned, oracles.brute_force_labelled_agreement(
            docs_a, docs_b, labels_of, conditioned))
        for task, labels_of in (("entity", oracles.span_tags),
                                ("relation", oracles.span_pair_types))
        for conditioned in (False, True)]
    references += [
        ("coref", False, oracles.brute_force_coref_agreement(docs_a, docs_b)),
        ("linking", False, oracles.brute_force_linking_agreement(docs_a, docs_b))]
    with tempfile.TemporaryDirectory() as tmp:
        a = _write(Path(tmp) / "a.jsonl", rng.sample(docs_a, len(docs_a)))
        b = _write(Path(tmp) / "b.jsonl", rng.sample(docs_b, len(docs_b)))
        for task, conditioned, want in references:
            argv = ["kappa", "--task", task, "--a", a, "--b", b]
            code, out, err = _run(argv + ["--conditioned"] * conditioned)
            if want is None:
                assert (code, out) == (2, "") and err.startswith("error: ")
            else:
                assert (code, err) == (0, "")
                assert json.loads(out) == {"schema_version": 1, "task": task,
                                           "result": want}


@st.composite
def invalid_documents(draw):
    """A document that may break every check of `validate`: a bad split, a
    broken sentence cover, repeated or empty clusters, reversed, empty,
    out-of-range or shared spans, dangling or self relations, and tags and
    relation types outside the vocabularies."""
    n_tokens = draw(st.integers(0, 6))
    bound = st.integers(-1, 7)
    sentences = draw(st.one_of(
        st.just([(0, n_tokens)] if n_tokens else []),
        st.lists(st.tuples(bound, bound), max_size=3)))
    tags = st.sets(st.sampled_from(["person", "gpe0", "type::person", "x::gpe0",
                                    "nonsense", "type::nonsense"]), max_size=2)
    clusters = draw(st.lists(st.tuples(
        st.sampled_from(["c0", "c1", "c2"]),
        st.lists(st.tuples(bound, bound), max_size=3), tags), max_size=4))
    relations = draw(st.lists(st.tuples(
        st.sampled_from(["c0", "c1", "c2", "cx"]),
        st.sampled_from(["in0", "citizen_of", "bogus"]),
        st.sampled_from(["c0", "c1", "c2", "cx"])), max_size=4))
    return make_doc(draw(st.sampled_from(["d0", "d1", "d2"])), n_tokens=n_tokens,
                    clusters=clusters, relations=relations, sentences=sentences,
                    split=draw(st.sampled_from(["train", "test", "unsplit", "dev"])))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(invalid_documents(), max_size=4))
@example([make_doc("d0", n_tokens=3, split="dev", sentences=[(0, 2)], clusters=[
    ("c0", [(0, 1), (2, 1)], ["nonsense"]), ("c1", [(0, 1), (1, 5)], ["person"])],
    relations=[("c0", "bogus", "cx"), ("c1", "in0", "c1")]),
    make_doc("d1", n_tokens=2), make_doc("d0", n_tokens=2)])
@example([make_doc("d0", n_tokens=4, clusters=[
    ("c0", [(0, 1)], []), ("c1", [(0, 1), (2, 3)], []), ("c0", [(0, 1)], []),
    ("c1", [(2, 3)], [])])])
def test_validate_equals_oracle_findings(docs):
    errors, warnings = oracles.validate_findings(docs)
    want = {"schema_version": 1, "documents": len(docs),
            "errors": errors, "warnings": warnings}
    with tempfile.TemporaryDirectory() as tmp:
        corpus = _write(Path(tmp) / "corpus.jsonl", docs)
        code, out, err = _run(["validate", corpus])
        assert (code, err) == (0, "")
        assert json.loads(out) == want
        code, out, err = _run(["validate", corpus, "--strict"])
        assert (code, err) == (1 if errors else 0, "")
        assert json.loads(out) == want


def _known_types(doc):
    return doc._replace(relations=tuple(r._replace(type="in0") for r in doc.relations))


@st.composite
def invalid_records(draw):
    """The file record of an `invalid_documents()` document or of a valid
    one, each cluster's mentions shuffled, maybe with some of the document's
    spans repeated, its own or another cluster's."""
    obj = _as_json(draw(st.one_of(
        invalid_documents(), documents("d", TYPE_TAGS).map(_known_types))))
    spans = [pair for cluster in obj["clusters"] for pair in cluster["mentions"]]
    for cluster in obj["clusters"]:
        pairs = cluster["mentions"]
        if spans and draw(st.integers(0, 3)) == 0:
            pairs = pairs + draw(st.lists(st.sampled_from(spans), max_size=2))
        cluster["mentions"] = draw(st.permutations(pairs))
    return obj


def _record(clusters=(), relations=(), n_tokens=4, sentences=None):
    return {"id": "d", "split": "train", "tokens": ["t"] * n_tokens,
            "sentences": sentences if sentences is not None
            else [[0, n_tokens]] if n_tokens else [],
            "clusters": [{"id": cid, "mentions": pairs, "tags": tags}
                         for cid, pairs, tags in clusters],
            "relations": [{"head": h, "type": t, "tail": tl} for h, t, tl in relations]}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invalid_records())
@example(_record(n_tokens=0))
@example(_record([("c0", [[0, 1]], ["type::person"])]))
@example(_record([("c0", [[0, 1]], ["person"]), ("c0", [[2, 3], [0, 1]], ["person"])]))
@example(_record([("c0", [[2, 3], [0, 1], [2, 3]], ["person"])]))
@example(_record([("c0", [[0, 1]], []), ("c1", [[1, 2]], [])], [("c0", "in0", "c0")]))
@example(_record([("c0", [[0, 1]], []), ("c1", [[1, 2]], [])], [("c0", "bogus", "c1")]))
@example(_record([("c0", [[0, 1]], []), ("c1", [[1, 2], [0, 1]], [])]))
@example(_record(sentences=[[0, 0], [0, 4]]))
@example(_record([("c0", [[-1, 1]], [])]))
@example(_record([("c0", [[3, 5]], [])]))
def test_loader_builds_the_per_item_document_of_invalid_records(obj):
    assert document_from_json(obj) == oracles.per_item_document_from_json(obj)


@pytest.mark.parametrize("reader", [
    lambda path: validate_path(path)[1], lambda path: list(iter_valid_corpus(path)),
    parse_corpus, lambda path: validate_corpus(entkit.corpus.iter_corpus(path))],
    ids=["validate_path", "iter_valid_corpus", "parse_corpus", "validate_corpus"])
def test_validating_readers_walk_every_document_once(tmp_path, monkeypatch, reader):
    # valid documents as well as invalid ones: none skips the walk
    docs = [make_doc("d0", n_tokens=4, clusters=[("c0", [(0, 1)], ["person"])]),
            make_doc("d1", n_tokens=2), make_doc("d2", n_tokens=2, split="dev")]
    walked = []
    validate = entkit.corpus.validate_document
    monkeypatch.setattr(entkit.corpus, "validate_document",
                        lambda d: walked.append(d.id) or validate(d))
    with contextlib.suppress(CorpusValidationError):
        reader(_write(tmp_path / "corpus.jsonl", docs))
    assert walked == ["d0", "d1", "d2"]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(invalid_documents(), max_size=4))
@example([make_doc("d0", n_tokens=2), make_doc("d0", n_tokens=2, split="dev"),
          make_doc("d1", n_tokens=2)])
def test_valid_reader_yields_the_error_free_documents_then_the_oracle_errors(docs):
    errors, _warnings = oracles.validate_findings(docs)
    want = [d for d in docs if not oracles.validate_findings([d])[0]]
    got = []
    with tempfile.TemporaryDirectory() as tmp:
        reader = iter_valid_corpus(_write(Path(tmp) / "corpus.jsonl", docs))
        if errors:
            with pytest.raises(CorpusValidationError) as raised:
                got.extend(reader)
            assert [{"doc": f.doc_id, "code": f.code, "message": f.message}
                    for f in raised.value.findings] == errors
        else:
            got.extend(reader)
    assert got == want
