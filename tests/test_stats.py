import contextlib
import io
from pathlib import Path

import pytest

from entkit import cli, corpus, stats
from entkit.corpus import Mention, load_corpus
from entkit.stats import (corpus_summary, entity_type_histogram,
                          load_type_hierarchy, multilabel_relation_histogram,
                          prior_link_baseline, relation_distance_profile,
                          relation_type_histogram, token_gap)
from conftest import make_doc


# --------------------------------------------------------------------------
# Distances


def test_token_gap_same_sentence():
    assert token_gap(Mention(0, 2), Mention(5, 7)) == 3


def test_token_gap_adjacent_spans():
    assert token_gap(Mention(0, 2), Mention(2, 4)) == 0


def test_token_gap_order_independent():
    assert token_gap(Mention(5, 7), Mention(0, 2)) == 3


def test_distance_profile_single_sentence():
    d = make_doc(n_tokens=10, clusters=[("a", [(0, 2)], []), ("b", [(5, 7)], [])],
                 relations=[("a", "in0", "b")])
    profile = relation_distance_profile([d])
    rec = profile.records[0]
    assert rec.min_token_gap == rec.max_token_gap == 3
    assert rec.min_sentence_dist == rec.max_sentence_dist == 0


def test_distance_profile_min_max_over_mentions():
    # entity a appears in sentence 0 and sentence 9; b only in sentence 9
    sentences = tuple((i * 3, (i + 1) * 3) for i in range(10))
    d = make_doc(n_tokens=30, sentences=sentences,
                 clusters=[("a", [(0, 1), (27, 28)], []), ("b", [(29, 30)], [])],
                 relations=[("a", "rel", "b")])
    rec = relation_distance_profile([d]).records[0]
    assert rec.min_sentence_dist == 0
    assert rec.max_sentence_dist == 9


def test_distance_profile_rejects_shared_span():
    d = make_doc(clusters=[("a", [(0, 1), (2, 3)], []), ("b", [(2, 3), (5, 6)], [])],
                 relations=[("a", "rel", "b")])
    with pytest.raises(ValueError):
        relation_distance_profile([d])


@pytest.mark.parametrize("relation", [("a", "rel", "e"), ("e", "rel", "a")])
def test_distance_profile_rejects_empty_cluster(relation):
    d = make_doc(clusters=[("a", [(0, 1)], []), ("e", [], [])],
                 relations=[relation])
    with pytest.raises(ValueError, match="^d: cluster 'e' has no mentions$"):
        relation_distance_profile([d])


def test_distance_profile_shared_span_error_comes_before_empty_cluster():
    d = make_doc(clusters=[("a", [(0, 1)], []), ("b", [(0, 1)], []), ("e", [], [])],
                 relations=[("a", "rel", "e"), ("a", "rel", "b")])
    with pytest.raises(ValueError, match="share a mention span"):
        relation_distance_profile([d])


def test_coverage_table_monotone_and_complete():
    docs = [make_doc(n_tokens=20, sentences=((0, 10), (10, 20)),
                     clusters=[("a", [(0, 1), (11, 12)], []),
                               ("b", [(4, 5)], []), ("c", [(18, 19)], [])],
                     relations=[("a", "r", "b"), ("a", "r", "c"),
                                ("b", "r", "c")])]
    profile = relation_distance_profile(docs)
    table = profile.coverage_table()
    assert table[-1][1] == table[-1][2] == 1.0
    for (d0, *row0), (d1, *row1) in zip(table, table[1:]):
        for a, b in zip(row0, row1):
            assert a <= b + 1e-12
    for _d, cmin_t, cmax_t, cmin_s, cmax_s in table:
        assert cmin_t >= cmax_t - 1e-12
        assert cmin_s >= cmax_s - 1e-12


# --------------------------------------------------------------------------
# Histograms


def test_entity_type_histogram_empty():
    hist = entity_type_histogram([])
    assert hist.direct == {} and hist.rollup == {}
    assert hist.total_clusters == 0


def test_entity_type_histogram_rollup_chain():
    d = make_doc(clusters=[("c", [(0, 1), (2, 3)], ["gpe0"])])
    hist = entity_type_histogram([d])
    for node in ("gpe0", "gpe", "location", "ENTITY"):
        assert hist.rollup[node] == (1, 2), node
    assert hist.direct == {"gpe0": (1, 2)}


def test_entity_type_histogram_no_double_count_on_sibling_tags():
    d = make_doc(clusters=[("c", [(0, 1)], ["gpe0", "gpe2"])])
    hist = entity_type_histogram([d])
    assert hist.rollup["gpe"] == (1, 1)
    assert hist.rollup["gpe0"] == (1, 1)


def test_type_hierarchy_resource_shape():
    parents = load_type_hierarchy()
    assert parents["gpe0"] == "gpe"
    assert parents["gpe"] == "location"
    assert parents["location"] == "ENTITY"
    assert parents["ENTITY"] is None
    assert parents["time"] == "VALUE"


def test_relation_type_histogram_products():
    d = make_doc(clusters=[("a", [(0, 1), (2, 3)], []),
                           ("b", [(5, 6), (7, 8), (9, 10)], [])],
                 relations=[("a", "l", "b")])
    hist = relation_type_histogram([d])
    assert hist.per_type == {"l": (1, 6)}
    assert hist.total_entity_pairs == 1
    assert hist.total_mention_pairs == 6


def test_relation_type_histogram_totals_count_pairs_once():
    d = make_doc(clusters=[("a", [(0, 1)], []), ("b", [(2, 3), (4, 5)], [])],
                 relations=[("a", "l1", "b"), ("a", "l2", "b")])
    hist = relation_type_histogram([d])
    assert hist.per_type == {"l1": (1, 2), "l2": (1, 2)}
    assert hist.total_entity_pairs == 1
    assert hist.total_mention_pairs == 2


def test_relation_type_histogram_empty():
    hist = relation_type_histogram([])
    assert hist.per_type == {}
    assert hist.total_entity_pairs == 0


def test_multilabel_histogram_buckets():
    d = make_doc(clusters=[("a", [(0, 1)], []), ("b", [(2, 3)], []),
                           ("c", [(4, 5), (6, 7)], [])],
                 relations=[("a", "in0", "b"), ("a", "in0-x", "b"),
                            ("a", "r", "c")])
    hist = multilabel_relation_histogram([d])
    assert hist == {1: (1, 2), 2: (1, 1)}


def test_multilabel_histogram_caps_at_four():
    d = make_doc(clusters=[("a", [(0, 1)], []), ("b", [(2, 3)], [])],
                 relations=[("a", f"t{i}", "b") for i in range(5)])
    hist = multilabel_relation_histogram([d])
    assert hist == {4: (1, 1)}


def test_multilabel_histogram_empty():
    assert multilabel_relation_histogram([]) == {}


def test_stats_command_builds_each_relation_table_once(tmp_path, monkeypatch):
    """`stats --plot-data` folds each document's relation unit table once
    for both relation histograms."""
    corpus = Path(__file__).parent / "fixtures" / "annotator_a.jsonl"
    calls = []

    def counted(d, task):
        calls.append((d.id, task))
        return labelled_units(d, task)

    labelled_units = stats._labelled_units
    monkeypatch.setattr(stats, "_labelled_units", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["stats", str(corpus),
                        "--plot-data", str(tmp_path / "stats.tsv")]) == 0
    assert sorted(calls) == sorted((d.id, "re") for d in load_corpus(corpus))


def test_stats_command_finds_each_documents_relations_once(tmp_path, monkeypatch):
    """`stats --plot-data` measures distances from the relation unit table
    the histograms read, so `corpus.relation_positions` runs once per
    document."""
    corpus_path = Path(__file__).parent / "fixtures" / "annotator_a.jsonl"
    calls = []

    def counted(d):
        calls.append(d.id)
        return relation_positions(d)

    relation_positions = corpus.relation_positions
    monkeypatch.setattr(corpus, "relation_positions", counted)
    # also counts a copy of the name that stats might hold
    monkeypatch.setattr(stats, "relation_positions", counted, raising=False)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["stats", str(corpus_path),
                        "--plot-data", str(tmp_path / "stats.tsv")]) == 0
    assert sorted(calls) == sorted(d.id for d in load_corpus(corpus_path))


# --------------------------------------------------------------------------
# Summary


def test_corpus_summary_empty():
    s = corpus_summary([])
    assert s.tokens == s.mentions == s.clusters == 0
    assert s.singleton_fraction == 0.0
    assert s.mean_labels_per_entity == 0.0


def test_corpus_summary_fields():
    d = make_doc(n_tokens=12, clusters=[
        ("a", [(0, 1), (2, 3)], ["person", "politician"], "KB1"),
        ("b", [(5, 6)], ["gpe0"], None),
    ], relations=[("a", "citizen_of", "b")])
    s = corpus_summary([d])
    assert s.tokens == 12
    assert s.mentions == 3
    assert s.clusters == 2
    assert s.entity_types == 3
    assert s.relation_triples == 1
    assert s.relation_types == 1
    assert s.linked_clusters == 1        # NIL is not a link
    assert s.linked_mentions == 2
    assert s.singleton_fraction == 0.5
    assert s.mean_labels_per_entity == 1.5


def test_summary_invariant_under_document_reordering():
    d1 = make_doc("d1", clusters=[("a", [(0, 1)], ["person"], "K")])
    d2 = make_doc("d2", clusters=[("b", [(0, 2)], ["gpe0"])])
    assert corpus_summary([d1, d2]) == corpus_summary([d2, d1])


def test_histogram_totals_equal_summary_counts():
    docs = [make_doc("d1", clusters=[("a", [(0, 1), (4, 5)], ["person"]),
                                     ("b", [(2, 3)], ["gpe0"])]),
            make_doc("d2", clusters=[("c", [(6, 7)], ["gpe2"])])]
    s = corpus_summary(docs)
    hist = entity_type_histogram(docs)
    assert hist.total_clusters == s.clusters
    assert hist.total_mentions == s.mentions


# --------------------------------------------------------------------------
# Prior-link baseline


def _linked_doc(doc_id, split, link):
    return make_doc(doc_id, n_tokens=4, split=split,
                    clusters=[("c", [(1, 2)], ["person"], link)],
                    sentences=((0, 4),))


def test_prior_baseline_identity():
    train = [_linked_doc("t", "train", "KB1")]
    test = [_linked_doc("e", "test", "KB1")]
    assert prior_link_baseline(train, test) == 1.0


def test_prior_baseline_majority_vote():
    # all mentions share the surface ("tok1",); e1 outvotes e2 two to one
    train = [
        make_doc("t1", split="train", clusters=[("a", [(1, 2)], [], "e1")]),
        make_doc("t2", split="train", clusters=[("a", [(1, 2)], [], "e1")]),
        make_doc("t3", split="train", clusters=[("a", [(1, 2)], [], "e2")]),
    ]
    test = [make_doc("x", split="test", clusters=[("a", [(1, 2)], [], "e1")])]
    assert prior_link_baseline(train, test) == 1.0
    test_wrong = [make_doc("x", split="test",
                           clusters=[("a", [(1, 2)], [], "e2")])]
    assert prior_link_baseline(train, test_wrong) == 0.0


def test_prior_baseline_tie_breaks_lexicographically():
    train = [
        make_doc("t1", split="train", clusters=[("a", [(1, 2)], [], "e2")]),
        make_doc("t2", split="train", clusters=[("a", [(1, 2)], [], "e1")]),
    ]
    test = [make_doc("x", split="test", clusters=[("a", [(1, 2)], [], "e1")])]
    assert prior_link_baseline(train, test) == 1.0


def test_prior_baseline_unseen_surface_is_wrong():
    train = [make_doc("t", split="train", clusters=[("a", [(1, 2)], [], "e1")])]
    test = [make_doc("x", n_tokens=9, split="test",
                     clusters=[("a", [(7, 8)], [], "e1")])]
    assert prior_link_baseline(train, test) == 0.0


def test_prior_baseline_requires_linked_test_mentions():
    train = [make_doc("t", split="train", clusters=[("a", [(1, 2)], [], "e1")])]
    test = [make_doc("x", split="test", clusters=[("a", [(1, 2)], [], None)])]
    with pytest.raises(ValueError):
        prior_link_baseline(train, test)
