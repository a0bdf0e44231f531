import random

import pytest

from entkit.corpus import MentionMultiClusterError
from entkit.metrics import (build_eval_view, hard_entity_prf,
                            mention_prf, per_label_prf, soft_entity_counts,
                            soft_entity_prf)
from conftest import make_doc, random_labeled_doc
from oracles import brute_force_levels, ner_units, re_units

TOL = 1e-9


def view_ner(gold, pred):
    return build_eval_view(gold, pred, "ner")


# --------------------------------------------------------------------------
# View construction


def test_re_view_uses_mention_cross_products():
    gold = make_doc(clusters=[("A", [(0, 1), (2, 3)], []), ("B", [(5, 6)], [])],
                    relations=[("A", "l", "B")])
    view = build_eval_view(gold, make_doc(), "re")
    assert view.labels["l"].gold_units == 1
    assert view.labels["l"].gold_instances == 2  # 2 mentions x 1 mention


def test_no_relations_means_empty_re_view():
    view = build_eval_view(make_doc(), make_doc(), "re")
    assert view.labels == {}


def test_multilabel_cluster_expands_to_every_tag():
    gold = make_doc(clusters=[("A", [(0, 1), (2, 3), (4, 5)],
                               ["person", "politician"])])
    view = view_ner(gold, make_doc())
    assert view.labels["person"].gold_instances == 3
    assert view.labels["politician"].gold_instances == 3


# Documents the counts cannot score: a span in two clusters (also two
# clusters with one id) and a cluster without mentions.
SHARED_SPAN = [("A", [(0, 1), (2, 3)], ["person"]), ("B", [(2, 3)], ["person"])]
SHARED_SPAN_ONE_ID = [("A", [(0, 1)], ["person"]), ("A", [(0, 1), (4, 5)], []),
                      ("B", [(6, 7)], ["person"])]
EMPTY_CLUSTER = [("A", [(0, 1)], ["person"]), ("B", [], ["person"])]


@pytest.mark.parametrize("task", ["ner", "re"])
@pytest.mark.parametrize("clusters", [SHARED_SPAN, SHARED_SPAN_ONE_ID])
def test_span_in_two_clusters_is_refused(task, clusters):
    bad = make_doc("bad", clusters=clusters, relations=[("A", "l", "B")])
    ok = make_doc("bad", clusters=[("A", [(0, 1)], ["person"])])
    for gold, pred in ((bad, ok), (ok, bad)):
        with pytest.raises(MentionMultiClusterError, match="bad: span"):
            build_eval_view(gold, pred, task)


@pytest.mark.parametrize("task", ["ner", "re"])
def test_empty_cluster_is_refused(task):
    bad = make_doc("bad", clusters=EMPTY_CLUSTER, relations=[("A", "l", "B")])
    ok = make_doc("bad", clusters=[("A", [(0, 1)], ["person"])])
    for gold, pred in ((bad, ok), (ok, bad)):
        with pytest.raises(ValueError, match="bad: cluster 'B' has no mentions"):
            build_eval_view(gold, pred, task)


def test_token_space_mismatch_rejected():
    with pytest.raises(ValueError, match="token-space"):
        build_eval_view(make_doc(n_tokens=5), make_doc(n_tokens=6), "ner")


# --------------------------------------------------------------------------
# Mention level


def test_mention_perfect():
    gold = make_doc(clusters=[("A", [(0, 1), (2, 3)], ["person"])])
    report = mention_prf(view_ner(gold, gold))
    assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)


def test_mention_nine_of_ten():
    spans = [(i, i + 1) for i in range(10)]
    gold = make_doc(clusters=[("G", spans, ["person"])])
    pred = make_doc(clusters=[("P", spans[:9], ["person"])])
    report = mention_prf(view_ner(gold, pred))
    assert report.precision == 1.0
    assert report.recall == pytest.approx(0.9)
    assert report.f1 == pytest.approx(0.947, abs=5e-4)


def test_mention_disjoint_labels_score_zero():
    gold = make_doc(clusters=[("G", [(0, 1)], ["person"])])
    pred = make_doc(clusters=[("P", [(0, 1)], ["gpe0"])])
    report = mention_prf(view_ner(gold, pred))
    assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)


def test_empty_both_sides_is_perfect():
    report = mention_prf(view_ner(make_doc(), make_doc()))
    assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)


def test_one_empty_side_scores_zero():
    gold = make_doc(clusters=[("G", [(0, 1)], ["person"])])
    report = mention_prf(view_ner(gold, make_doc()))
    assert (report.precision, report.recall) == (0.0, 0.0)


# --------------------------------------------------------------------------
# Hard entity level


def test_hard_exact_match():
    gold = make_doc(clusters=[("G", [(0, 1), (2, 3)], ["person"])])
    pred = make_doc(clusters=[("P", [(0, 1), (2, 3)], ["person"])])
    report = hard_entity_prf(view_ner(gold, pred))
    assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)


def test_hard_split_cluster_counts_zero():
    gold = make_doc(clusters=[("G", [(0, 1), (2, 3), (4, 5)], ["A"])])
    pred = make_doc(clusters=[("P1", [(0, 1), (2, 3)], ["A"]),
                              ("P2", [(4, 5)], ["A"])])
    report = hard_entity_prf(view_ner(gold, pred))
    assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)


def test_hard_label_mismatch_counts_zero():
    gold = make_doc(clusters=[("G", [(0, 1)], ["A"])])
    pred = make_doc(clusters=[("P", [(0, 1)], ["B"])])
    report = hard_entity_prf(view_ner(gold, pred))
    assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)


# --------------------------------------------------------------------------
# Soft entity level


def test_soft_counts_on_split_cluster():
    gold = make_doc(clusters=[("G", [(0, 1), (2, 3), (4, 5)], ["person"])])
    pred = make_doc(clusters=[("P1", [(0, 1), (2, 3)], ["person"]),
                              ("P2", [(4, 5)], ["person"])])
    counts = soft_entity_counts(view_ner(gold, pred), "person")
    assert counts.tp_p == pytest.approx(2.0)
    assert counts.fp == pytest.approx(0.0)
    assert counts.tp_g == pytest.approx(1.0)
    assert counts.fn == pytest.approx(0.0)


def test_soft_counts_disjoint_labels():
    gold = make_doc(clusters=[("G", [(0, 1), (2, 3)], ["A"])])
    pred = make_doc(clusters=[("P", [(0, 1), (2, 3)], ["B"])])
    view = view_ner(gold, pred)
    b = soft_entity_counts(view, "B")
    a = soft_entity_counts(view, "A")
    assert (b.tp_p, b.fp) == (0.0, 1.0)
    assert (a.tp_g, a.fn) == (0.0, 1.0)


def test_soft_counts_re_cross_products():
    gold = make_doc(clusters=[("A", [(0, 1), (2, 3)], []), ("B", [(5, 6)], [])],
                    relations=[("A", "l", "B")])
    pred = make_doc(clusters=[("A2", [(0, 1)], []), ("B2", [(5, 6)], [])],
                    relations=[("A2", "l", "B2")])
    counts = soft_entity_counts(build_eval_view(gold, pred, "re"), "l")
    assert counts.tp_p == pytest.approx(1.0)
    assert counts.tp_g == pytest.approx(0.5)


def test_soft_forgives_splits_where_hard_does_not():
    gold = make_doc(clusters=[("G", [(0, 1), (2, 3), (4, 5)], ["person"])])
    pred = make_doc(clusters=[("P1", [(0, 1), (2, 3)], ["person"]),
                              ("P2", [(4, 5)], ["person"])])
    view = view_ner(gold, pred)
    soft = soft_entity_prf(view)
    hard = hard_entity_prf(view)
    assert (soft.precision, soft.recall, soft.f1) == (1.0, 1.0, 1.0)
    assert (hard.precision, hard.recall, hard.f1) == (0.0, 0.0, 0.0)


def test_soft_re_hand_value():
    gold = make_doc(clusters=[("A", [(0, 1), (2, 3)], []), ("B", [(5, 6)], [])],
                    relations=[("A", "l", "B")])
    pred = make_doc(clusters=[("A2", [(0, 1)], []), ("B2", [(5, 6)], [])],
                    relations=[("A2", "l", "B2")])
    report = soft_entity_prf(build_eval_view(gold, pred, "re"))
    assert report.precision == pytest.approx(1.0)
    assert report.recall == pytest.approx(0.5)
    assert report.f1 == pytest.approx(2 / 3, abs=1e-9)


# --------------------------------------------------------------------------
# Identities and properties


def _random_pair(rng, task):
    gold = random_labeled_doc(rng, "g", with_relations=(task == "re"))
    pred = random_labeled_doc(rng, "p", with_relations=(task == "re"))
    pred = make_doc("g", n_tokens=30,
                    clusters=[(c.id, [(m.begin, m.end) for m in c.mentions],
                               sorted(c.tags)) for c in pred.clusters],
                    relations=[(r.head, r.type, r.tail) for r in pred.relations])
    return gold, pred


@pytest.mark.parametrize("task", ["ner", "re"])
def test_table_identities_hold_exactly(task):
    rng = random.Random(5)
    for _ in range(200):
        gold, pred = _random_pair(rng, task)
        view = build_eval_view(gold, pred, task)
        for label, lv in view.labels.items():
            counts = soft_entity_counts(view, label)
            assert counts.tp_p + counts.fp == lv.pred_units
            assert counts.tp_g + counts.fn == lv.gold_units
            assert 0.0 <= counts.tp_p <= lv.pred_units
            assert 0.0 <= counts.tp_g <= lv.gold_units


@pytest.mark.parametrize("task", ["ner", "re"])
def test_matches_brute_force_oracle(task):
    rng = random.Random(6)
    units_of = ner_units if task == "ner" else re_units
    for _ in range(250):
        gold, pred = _random_pair(rng, task)
        view = build_eval_view(gold, pred, task)
        expected = brute_force_levels(units_of(gold), units_of(pred))
        got = {
            "mention": mention_prf(view),
            "hard": hard_entity_prf(view),
            "soft": soft_entity_prf(view),
        }
        for level, (p, r, f) in expected.items():
            assert abs(got[level].precision - p) < TOL, (level, "precision")
            assert abs(got[level].recall - r) < TOL, (level, "recall")
            assert abs(got[level].f1 - f) < TOL, (level, "f1")


def test_cluster_id_and_mention_order_permutations_are_invisible(rng):
    gold = random_labeled_doc(rng, "g")
    pred0 = random_labeled_doc(rng, "p")
    renamed = make_doc("g", n_tokens=30, clusters=[
        (f"z{9 - i}", list(reversed([(m.begin, m.end) for m in c.mentions])),
         sorted(c.tags))
        for i, c in enumerate(pred0.clusters)])
    base = make_doc("g", n_tokens=30, clusters=[
        (c.id, [(m.begin, m.end) for m in c.mentions], sorted(c.tags))
        for c in pred0.clusters])
    for fn in (mention_prf, hard_entity_prf, soft_entity_prf):
        a = fn(build_eval_view(gold, base, "ner"))
        b = fn(build_eval_view(gold, renamed, "ner"))
        assert (a.precision, a.recall, a.f1) == (b.precision, b.recall, b.f1)


def test_per_label_breakdown():
    gold = make_doc(clusters=[("G1", [(0, 1)], ["A"]), ("G2", [(2, 3)], ["B"])])
    pred = make_doc(clusters=[("P1", [(0, 1)], ["A"]), ("P2", [(4, 5)], ["B"])])
    table = per_label_prf(view_ner(gold, pred), "hard")
    assert table["A"].f1 == 1.0
    assert table["B"].f1 == 0.0


def test_corpus_aggregation_is_count_based():
    gold1 = make_doc("d1", clusters=[("G", [(0, 1)], ["A"])])
    gold2 = make_doc("d2", clusters=[("G", [(0, 1)], ["A"])])
    pred1 = make_doc("d1", clusters=[("P", [(0, 1)], ["A"])])
    pred2 = make_doc("d2", clusters=[("P", [(4, 5)], ["A"])])
    views = [view_ner(gold1, pred1), view_ner(gold2, pred2)]
    report = mention_prf(views)
    assert report.precision == 0.5
    assert report.recall == 0.5
